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

All arithmetic is over Fraction; equality checks are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

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


def mat_mul(a, b) -> tuple:
    a, b = as_matrix(a), as_matrix(b)
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v) -> tuple:
    a = as_matrix(a)
    v = tuple(Fraction(x) for x in v)
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(a) -> Fraction:
    """Exact determinant by fraction elimination with partial pivoting."""
    a = [list(row) for row in as_matrix(a)]
    d = len(a)
    if d and len(a[0]) != d:
        raise ValueError("determinant of a nonsquare matrix")
    out = Fraction(1)
    for c in range(d):
        piv = next((r for r in range(c, d) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, d):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, d):
                    a[r][j] -= f * a[c][j]
    return out


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
    lexicographic order.  Functorial: compound(AB) = compound(A) compound(B)."""
    a = as_matrix(a)
    m, p = len(a), len(a[0]) if a else 0
    if not 0 <= k <= min(m, p):
        raise ValueError(f"compound order {k} out of range for {m}x{p}")
    if k == 0:
        return ((Fraction(1),),)
    rows = list(combinations(range(m), k))
    cols = list(combinations(range(p), k))
    return tuple(
        tuple(det([[a[i][j] for j in J] for i in I]) for J in cols) for I in rows
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
    return sum(
        yi * si for yi, si in zip(
            (Fraction(v) for v in y), (mat_vec(s, x))
        )
    )


def transposition_action(s, m) -> tuple:
    """The twist M^{-1} S^T M induced on sections by the ambient map M."""
    return mat_mul(mat_mul(inverse(m), transpose(s)), m)


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(
        tuple(Fraction(rng.randint(lo, hi)) for _ in range(cols)) for _ in range(rows)
    )


def _random_invertible(rng, d):
    while True:
        m = _random_matrix(rng, d, d, -4, 4)
        if det(m):
            return m


def symmetry_obstruction_probe(n: int, trials: int = 50, seed: int = 0) -> dict:
    """Sample S M = M S^T with M in the compound image of GL(V).

    One random section matrix S is fixed and tested against `trials` random
    compound matrices; the identity section is kept as a control, since it
    satisfies the equation for every M.  The dimension gap between GL(V) and
    the ambient flag is reported alongside: together, a hit count of zero
    and the gap exhibit the fixed-section condition as nongeneric.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        # zero trials would report an obstruction on no evidence at all
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    N = 2 * n + 1
    D = comb(N, n)
    s = _random_matrix(rng, D, D)
    one = identity(D)
    hits = 0
    control_hits = 0
    for _ in range(trials):
        m = compound(_random_invertible(rng, N), n)
        hits += mat_mul(s, m) == mat_mul(m, transpose(s))
        control_hits += mat_mul(one, m) == mat_mul(m, transpose(one))
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
