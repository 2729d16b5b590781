"""Exact Pluecker-coordinate linear algebra for the section-symmetry probe.

A (1,1)-section on the product of the two Pluecker ambients is a matrix S on
wedge^n V (the second ambient identified with the dual by the wedge pairing),
evaluating as y^T S x.  An identification of the two sides built from a
transformation of V acts on sections by the transposition twist
S -> M^{-1} S^T M, where M is the induced matrix on wedge^n V; a section
yielding isomorphic zero loci would have to be fixed by the twist, i.e.
satisfy S M = M S^T with M ranging over compound matrices.  The probe
samples that equation exactly: it always holds for the identity section,
and for a random S it should never hold, in line with the dimension gap
between GL(V) and the flag of the Pluecker ambient.

Inside, every probe matrix and every minor is a plain int, computed by the
integer kernel in `minors` (Laplace-shared compounds, Bareiss determinants).
The public functions take and return Fractions; `det` and `compound` clear
each row's denominators, run that kernel and divide back.

The probe reads the row support of S and of the identity control once, and
checks each trial's compound against both with one predicate that compares
S M with M S^T lazily, entry by entry, so a random S is refuted at entry
(0, 0) from row 0 and column 0 of M.  Its random matrices are the values
`randint` would draw, taken from `getrandbits` directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, compress, repeat, zip_longest
from math import comb, lcm, prod
from operator import add, mul, ne

from .minors import _bareiss, _compound
from .symfunc import dimension_gap


def as_matrix(rows) -> tuple:
    """Nested tuples of Fractions; rows must be rectangular."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


def identity(d: int) -> tuple:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def transpose(a) -> tuple:
    return tuple(zip(*as_matrix(a)))


def _apply(a, v) -> tuple:
    """a v for exact numbers."""
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_mul(a, b) -> tuple:
    a, b = as_matrix(a), as_matrix(b)
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a, v) -> tuple:
    a = as_matrix(a)
    v = tuple(Fraction(x) for x in v)
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return _apply(a, v)


def _scaled(a) -> tuple:
    """(scales, rows): each row times the lcm of its denominators, so a minor
    of `a` is the integer minor over the scales of its rows."""
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    return scales, [[int(x * s) for x in row] for row, s in zip(a, scales)]


def det(a) -> Fraction:
    """Exact determinant: one Bareiss elimination, O(N^3) steps."""
    a = as_matrix(a)
    if a and len(a[0]) != len(a):
        raise ValueError("determinant of a nonsquare matrix")
    scales, rows = _scaled(a)
    return Fraction(_bareiss(rows), prod(scales))


def inverse(a) -> tuple:
    a = [list(row) for row in as_matrix(a)]
    d = len(a)
    if d and len(a[0]) != d:
        raise ValueError("inverse of a nonsquare matrix")
    aug = [a[i] + [Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        f = aug[c][c]
        aug[c] = [x / f for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                g = aug[r][c]
                aug[r] = [x - g * y for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[d:]) for row in aug)


def compound(a, k: int) -> tuple:
    """k-th compound: minors on k-subsets of rows and columns, both in
    lexicographic order.  Functorial: compound(AB) = compound(A) compound(B).

    Level j <= k of an m x p matrix costs C(m-k+j, j) C(p, j) minors of j
    products each, exponential near k = min(m, p): use `det` for one minor.
    The full order of a square matrix is that one minor, by one elimination."""
    a = as_matrix(a)
    m, p = len(a), len(a[0]) if a else 0
    if not 0 <= k <= min(m, p):
        raise ValueError(f"compound order {k} out of range for {m}x{p}")
    scales, rows = _scaled(a)
    return tuple(
        tuple(Fraction(x, prod(scales[i] for i in I)) for x in minors)
        for I, minors in zip(combinations(range(m), k), _compound(rows, k))
    )


def pluecker_embed(a) -> tuple:
    """Pluecker coordinates of the row space of a full-rank n x N matrix:
    the maximal minors, columns taken in lexicographic subset order."""
    a = as_matrix(a)
    n, N = len(a), len(a[0]) if a else 0
    if n > N:
        raise ValueError("more rows than ambient dimension")
    coords = compound(a, n)[0]
    if not any(coords):
        raise ValueError("rows are dependent")
    return coords


def section_eval(s, x, y) -> Fraction:
    """y^T S x, the value of the section with matrix S on the point pair."""
    return mat_vec((tuple(y),), mat_vec(s, x))[0]


def transposition_action(s, m) -> tuple:
    """The twist M^{-1} S^T M induced on sections by the ambient map M."""
    return mat_mul(mat_mul(inverse(m), transpose(s)), m)


def _support(s) -> tuple:
    """S read once for `_twist_fixes`: (rows, layers).

    rows[i] holds the columns of the nonzeros of row i and their values;
    layers[t] holds, for every row, the column and value of its t-th nonzero,
    or (0, 0) past its last one, so layer t lines up with the rows of S.
    """
    cols = list(range(len(s[0]) if s else 0))  # shared index ints, not one per entry
    at = [list(compress(cols, row)) for row in s]
    vals = [list(compress(row, row)) for row in s]
    layers = zip(zip_longest(*at, fillvalue=0), zip_longest(*vals, fillvalue=0))
    return list(zip(at, vals)), list(layers)


def _twist_fixes(support, m) -> bool:
    """S M == M S^T for square int matrices, S given by its `_support`,
    decided exactly row by row and entry by entry.

    Row i of S M is the rows of M weighted by row i of S, one term per
    nonzero of that row; row i of M S^T is S applied to row i of M, one term
    per layer of S, entry j of layer t being its value times M[i][its
    column].  Each row is a lazy fold of C-level iterators (`map`, `repeat`)
    and the two are compared entry by entry, so the first unequal entry
    certifies a non-hit: a dense random S is refuted at entry (0, 0) after
    about 2 D products, reading only row 0 and column 0 of M.  A hit compares
    every entry, entry (i, j) at nnz(row i of S) plus (number of layers)
    products: two for the identity, against its one layer.
    """
    rows, layers = support
    d = len(m)
    for i, (at, vals) in enumerate(rows):
        left = repeat(0, d)
        for k, x in zip(at, vals):
            left = map(add, left, map(mul, repeat(x), m[k]))
        right, get = repeat(0, d), m[i].__getitem__
        for cols, xs in layers:
            right = map(add, right, map(mul, xs, map(get, cols)))
        if any(map(ne, left, right)):
            return False
    return True


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    """rows x cols values of rng.randint(lo, hi), in order and leaving rng in
    the same state: randint redraws getrandbits(span.bit_length()) while the
    value is >= span.  Here each batch draws only as many as are still
    needed, so no draw runs past the last value kept."""
    span = hi - lo + 1
    k, flat, need = span.bit_length(), [], rows * cols
    while len(flat) < need:
        batch = map(rng.getrandbits, repeat(k, need - len(flat)))
        flat += map(lo.__add__, filter(span.__gt__, batch))
    return tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))


def _random_invertible(rng, d):
    while True:
        m = _random_matrix(rng, d, d, -4, 4)
        if _bareiss(m):
            return m


# the probe's trial count when none is given, also the default of the
# `pluecker` and `verify` commands, so a claim's subcommand reports what
# `verify` does without flags
_DEFAULT_TRIALS = 5

# the largest n the probe takes: one n = 7 trial exhausts a 2 GB address space
_MAX_N = 6


def symmetry_obstruction_probe(
    n: int, trials: int = _DEFAULT_TRIALS, seed: int = 0
) -> dict:
    """Sample S M = M S^T with M in the compound image of GL(V).

    One random section matrix S is fixed and tested against `trials` random
    compound matrices; the identity section is kept as a control, since it
    satisfies the equation for every M.  The dimension gap between GL(V) and
    the ambient flag is reported alongside: together, a hit count of zero
    and the gap exhibit the fixed-section condition as nongeneric.  Each
    non-hit is an exact certificate that S M != M S^T for that M.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"the probe takes n in 1..{_MAX_N}, not {n}")
    if trials < 1:
        # zero trials would report an obstruction on no evidence at all
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    N = 2 * n + 1
    D = comb(N, n)
    s = _support(_random_matrix(rng, D, D))
    # the identity's support: row i holds a 1 at column i, in one layer
    one = [([i], [1]) for i in range(D)], [(range(D), (1,) * D)]
    hits = 0
    control_hits = 0
    for _ in range(trials):
        m = _compound(_random_invertible(rng, N), n)
        hits += _twist_fixes(s, m)
        control_hits += _twist_fixes(one, m)
    flag_dim, group_dim, gap_holds = dimension_gap(n)
    return {
        "n": n,
        "ambient_size": D,
        "trials": trials,
        "hits": hits,
        "identity_control_hits": control_hits,
        "flag_dimension": flag_dim,
        "group_dimension": group_dim,
        "gap_holds": gap_holds,
        "obstructed": hits == 0 and control_hits == trials and gap_holds,
    }
