"""Cohomology of bundles restricted to the zero locus Y of a general section
of Q*(2) on G(n, 2n+1), through the Koszul resolution of Y.

Y has codimension n+1 and its structure sheaf is resolved by the bundles
wedge^l(Q(-2)) = wedge^l Q(-2l), l = 0 .. n+1.  Tensored with F, the cells
H^q(F (x) wedge^l Q(-2l)) form the E1 page of a spectral sequence converging
to H^*(F|_Y); cell (l, q) sits in total degree q - l.  The dual Pieri rule
(Macdonald I.5.17) reads each product with wedge^l Q directly: it adds a
vertical l-strip to the Q-part.  One rule reads the answer off that page:

  A differential can only run from a cell (l, q) to a cell (l2, q2) with
  l2 < l and q2 - l2 = q - l + 1.  Every such pair of nonzero cells blocks,
  except a pair whose target is (0, 0): those maps start in total degree -1,
  where H^-1(F|_Y) = 0, so they are injective.  With no blocking pair,

    h^p(F|_Y) = sum of the degree-p cells - [p = 0] * sum of the degree -1 cells.

Otherwise the result is reported indeterminate, naming the blocking pair,
rather than guessed.
"""

from __future__ import annotations

from typing import NamedTuple

from .bwb import Bundle, _as_summands, bott, to_weight
from .partitions import weyl_dimension


def _vertical_strips(q) -> list:
    """[(mu, l)] for every mu within len(q) rows with mu/q a vertical l-strip;
    q is weakly decreasing.  Row by row, a row takes a box only below a row
    that is still longer, so every prefix kept extends."""
    strips = [((), 0)]
    for x in q:
        strips = [
            (mu + (y,), l + y - x)
            for mu, l in strips
            for y in (x, x + 1)
            if not mu or y <= mu[-1]
        ]
    return strips


def koszul_page(f, n: int) -> dict:
    """Nonzero cells {(l, q): dim H^q(F (x) wedge^l Q(-2l))} for l in
    [0, n+1], ordered by l, then q; F may be a Bundle or a {Bundle:
    multiplicity} dict.  These are the terms of the Koszul resolution of the
    zero locus of Q*(2), tensored with F.

    By the dual Pieri rule each summand's product with wedge^l Q is the sum
    of the S^mu(Q) over the vertical l-strips mu/q, so every cell is one Bott
    walk on the weight (mu, tail + 2l), tail the U*-and-twist part of the
    summand's weight.  No summand is canonicalized: a full column of mu, like
    the one of wedge^{n+1} Q = O(1), shifts the weight by (1^{2n+1}), which
    changes neither the Bott degree nor the Weyl dimension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = {}
    for b, m in _as_summands(f).items():
        w = to_weight(b, n)
        tail = w[n + 1:]
        for mu, l in _vertical_strips(w[:n + 1]):
            res = bott(mu + tuple([x + 2 * l for x in tail]))
            if res is not None:
                p, dom = res
                cells[l, p] = cells.get((l, p), 0) + m * weyl_dimension(dom)
    return {cell: d for cell, d in sorted(cells.items()) if d}


class RestrictedCohomology(NamedTuple):
    determinate: bool
    table: dict | None  # {degree: dim} of F|_Y, zero entries omitted
    page: dict  # {(l, degree): dim} Koszul cells, l = 0 .. n+1
    reason: str | None  # set when indeterminate


def restricted_cohomology(f, n: int) -> RestrictedCohomology:
    page = koszul_page(f, n)
    blocking = [
        (a, b)
        for a in page
        for b in page
        if b[0] < a[0] and b[1] - b[0] == a[1] - a[0] + 1 and b != (0, 0)
    ]
    if blocking:
        # the first pair in page order, preferring targets with l2 >= 1
        a, b = min(blocking, key=lambda pair: pair[1][0] == 0)
        reason = f"possible differential from cell {a} to {b}"
        return RestrictedCohomology(False, None, page, reason)
    sums = {}
    for (l, q), d in page.items():
        sums[q - l] = sums.get(q - l, 0) + d
    assert min(sums, default=0) >= -1, "a cell below degree -1 survived"
    killed = sums.pop(-1, 0)
    assert killed <= page.get((0, 0), 0)
    sums[0] = sums.get(0, 0) - killed
    table = {p: h for p, h in sorted(sums.items()) if h}
    assert all(h > 0 for h in table.values())
    assert all(p <= n * n - 1 for p in table), "cohomology beyond dim Y"
    return RestrictedCohomology(True, table, page, None)


def deformation_sweep(n: int) -> dict:
    """Cohomology of the two bundle families controlling the tangent page:

      family 1:  wedge^n Q (x) Q (x) wedge^l Q(-2l-1)
      family 2:  Q (x) wedge^l Q(-2l)

    for 1 <= l <= n+1, the l >= 1 cells of the Koszul pages of
    wedge^n Q(-1) (x) Q and of Q.  Returns n and every nonzero (family, l,
    degree, dim) cell, ordered by l, then family; family 2 vanishing
    identically is what splices family 1 into the tangent restriction one
    degree up.  There is no top-degree key: the degree is read off the cells.
    By the dual Pieri rule wedge^n Q (x) Q = e_n e_1 = s_(2,1^{n-1}) +
    s_(1^{n+1}), full column and all.
    """
    pages = (
        (1, koszul_page({Bundle((), (2,) + (1,) * (n - 1), -1): 1,
                         Bundle((), (1,) * (n + 1), -1): 1}, n)),
        (2, koszul_page(Bundle((), (1,), 0), n)),
    )
    cells = sorted(
        (l, fam, p, d) for fam, page in pages for (l, p), d in page.items() if l >= 1
    )
    nonzero = [{"family": fam, "l": l, "degree": p, "dim": d} for l, fam, p, d in cells]
    return {"n": n, "nonzero": nonzero}


def family_dimension(n: int, detail: bool = False):
    """Dimension of the family of deformations of Y inside its ambient orbit
    count: h^0(N) - h^0(T|_Y) + dim ker(H^1(T|_Y) -> H^1(N)) with N the
    restriction of Q*(2) and T the ambient tangent bundle U* (x) Q.

    The kernel term is only forced when H^1(N) = 0, which holds in the range
    computed here; the count assumes the cut has no infinitesimal
    automorphisms of its own, so the ambient algebra accounts for the whole
    quotient.
    """
    if n < 2:
        raise ValueError("the zero locus is only a threefold or larger for n >= 2")
    normal = restricted_cohomology(Bundle((), (1,) * n, 1), n)
    tangent = restricted_cohomology(Bundle((1,), (1,), 0), n)
    if not (normal.determinate and tangent.determinate):
        raise ArithmeticError("restriction indeterminate; no dimension count")
    h1_normal = normal.table.get(1, 0)
    if h1_normal:
        raise ArithmeticError("H^1 of the restricted normal bundle is nonzero")
    kernel = tangent.table.get(1, 0)
    value = normal.table.get(0, 0) - tangent.table.get(0, 0) + kernel
    if not detail:
        return value
    return {
        "n": n,
        "normal_sections": normal.table.get(0, 0),
        "tangent_sections": tangent.table.get(0, 0),
        "obstruction_kernel": kernel,
        "dimension": value,
    }
