"""Exact integer minors: Bareiss determinants and compound matrices.

Every matrix here is a list or tuple of int rows and every minor a plain
int.  A compound shares its row-prefix minors by Laplace expansion, and a
determinant runs Bareiss fraction-free elimination, whose divisions are
exact.  The module imports nothing from the package, so any layer may use it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb


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
    level = {(): (1,)}
    for j in range(1, k + 1):
        terms, width = _laplace_terms(p, j), comb(p, j)
        nxt = {}
        for I in combinations(range(m - k + j), j):
            row, prev, out = rows[I[-1]], level[I[:-1]], [0] * width
            for a, pairs in zip([*row, *(-v for v in row)], terms):
                if a:
                    for y, x in pairs:
                        out[y] += a * prev[x]
            nxt[I] = tuple(out)
        level = nxt
    return tuple(level.values())


@lru_cache(maxsize=32)
def _laplace_terms(p: int, j: int) -> tuple:
    """Index pairs expanding a j-minor on p columns along its last row.

    terms[c] holds (J, J - c) pairs, positions of the j-set J among the
    j-subsets of range(p) and of J - c among the (j-1)-subsets, for c = J[t];
    the pair moves to terms[c + p], read against the negated row, when the
    cofactor sign (-1)^(j-1+t) is -1.  They depend on (p, j) alone.
    """
    at = {J: y for y, J in enumerate(combinations(range(p), j))}
    terms = [[] for _ in range(2 * p)]
    for x, K in enumerate(combinations(range(p), j - 1)):
        for c in set(range(p)).difference(K):
            t = sum(b < c for b in K)
            terms[c + p * ((j - 1 + t) % 2)].append((at[K[:t] + (c,) + K[t:]], x))
    return tuple(map(tuple, terms))
