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

Inside, every probe matrix and every minor is a plain int: a compound shares
its row-prefix minors by Laplace expansion, and `det` runs Bareiss
fraction-free elimination, whose divisions are exact.  The public functions
take and return Fractions; `det` and `compound` clear each row's
denominators, run the integer kernel and divide back.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from operator import mul

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


def _bareiss(rows) -> int:
    """Determinant of a square int matrix by Bareiss fraction-free elimination.

    After step c every entry below row c is a (c+1)-order minor of the input,
    so the division by the previous pivot is exact.  `rows` is not modified.
    """
    a = [list(row) for row in rows]
    d = len(a)
    if not d:
        return 1
    sign, prev = 1, 1
    for c in range(d - 1):
        if not a[c][c]:
            piv = next((r for r in range(c + 1, d) if a[r][c]), None)
            if piv is None:
                return 0
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for row in a[c + 1:]:
            f = row[c]
            for j in range(c + 1, d):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sign * a[-1][-1]


def _compound(rows, k: int) -> tuple:
    """k-th compound of an int matrix, subsets in lexicographic order.

    Level j holds every j x j minor on the row sets that still extend to a
    k-set, expanded along its last row over the (j-1)-minors of its row
    prefix: no minor is computed twice, and two levels are held at once.
    """
    m, p = len(rows), len(rows[0]) if rows else 0
    if k == m == p:
        # the one full-order minor: the level walk would visit every column set
        return ((_bareiss(rows),),)
    level, cols = {(): (1,)}, [()]
    for j in range(1, k + 1):
        at = {J: y for y, J in enumerate(combinations(range(p), j))}
        # terms[c]: (J, J - c) index pairs, moved to terms[c + p], read against
        # the negated row, when the cofactor sign (-1)^(j-1+t) is -1 (c = J[t])
        terms = [[] for _ in range(2 * p)]
        for x, K in enumerate(cols):
            for c in set(range(p)).difference(K):
                t = sum(b < c for b in K)
                terms[c + p * ((j - 1 + t) % 2)].append((at[K[:t] + (c,) + K[t:]], x))
        cols = list(at)
        nxt = {}
        for I in combinations(range(m - k + j), j):
            row, prev, out = rows[I[-1]], level[I[:-1]], [0] * len(cols)
            for a, pairs in zip([*row, *(-v for v in row)], terms):
                if a:
                    for y, x in pairs:
                        out[y] += a * prev[x]
            nxt[I] = tuple(out)
        level = nxt
    return tuple(level.values())


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


def _twist_fixes(s, m) -> bool:
    """S M == M S^T for square int matrices, decided exactly column by column.

    Column j of S M is S (M e_j) and column j of M S^T is M (row j of S), so
    the first unequal column certifies a non-hit; a hit compares them all.
    Each call first reads the row support of S, one pass over its D^2
    entries; both products then run over the nonzeros of S only.  A column
    costs 2 nnz(S) products, so a dense S refuted at column 0 costs about
    3 D^2 steps with the support pass, and the identity control D^2 for the
    pass plus 2 D per column.
    """
    support = [([k for k, x in enumerate(row) if x], [x for x in row if x]) for row in s]
    for col, (at, vals) in zip(zip(*m), support):
        left = [sum(map(mul, v, map(col.__getitem__, i))) for i, v in support]
        right = [sum(map(mul, vals, map(row.__getitem__, at))) for row in m]
        if left != right:
            return False
    return True


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows)
    )


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
    s = _random_matrix(rng, D, D)
    one = tuple(tuple(int(i == j) for j in range(D)) for i in range(D))
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
