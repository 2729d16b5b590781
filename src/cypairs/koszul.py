"""Cohomology of bundles restricted to the zero locus Y of a general section
of Q*(2) on G(n, 2n+1), through the Koszul resolution of Y.

Y has codimension n+1; the resolution of its structure sheaf by the bundles
wedge^l(Q(-2)) = wedge^l Q(-2l) turns H^*(F|_Y) into a two-stage assembly:

  stage 1  the cells H^q(F (x) wedge^l Q(-2l)), l >= 1, compute the
           cohomology of the twisted ideal I_Y(F).  A differential could
           only connect cells on consecutive antidiagonals q - l; when no
           such pair of nonzero cells exists the cell sums are exact.

  stage 2  the long exact sequence of 0 -> I_Y(F) -> F -> F|_Y -> 0, with
           connecting ranks forced whenever one side of each map vanishes
           (and by left exactness in degree 0).

Whenever a differential or a connecting rank is not forced the result is
reported indeterminate rather than guessed.
"""

from __future__ import annotations

from typing import NamedTuple

from .bwb import Bundle
from .bundles import koszul_page, tensor, wedge_q


class RestrictedCohomology(NamedTuple):
    determinate: bool
    table: dict | None  # {degree: dim} of F|_Y, zero entries omitted
    page: dict  # {(l, degree): dim} Koszul cells, l = 0 .. n+1
    ideal: dict | None  # {degree: dim} of I_Y(F)
    reason: str | None  # set when indeterminate


def restricted_cohomology(f, n: int) -> RestrictedCohomology:
    page = koszul_page(f, n)
    cells = [(l, q) for (l, q) in page if l >= 1]
    for l, q in cells:
        for l2, q2 in cells:
            if l2 < l and q2 - l2 == q - l + 1:
                return RestrictedCohomology(
                    False,
                    None,
                    page,
                    None,
                    f"possible differential from cell {(l, q)} to {(l2, q2)}",
                )
    ideal = {}
    for l, q in cells:
        p = q - l + 1
        assert p >= 0, f"cell {(l, q)} below degree zero survived the check"
        ideal[p] = ideal.get(p, 0) + page[(l, q)]
    ambient = {q: d for (l, q), d in page.items() if l == 0}
    top = n * (n + 1)
    ranks = {}
    for p in range(top + 2):
        hi, ha = ideal.get(p, 0), ambient.get(p, 0)
        if p == 0:
            assert hi <= ha
            ranks[p] = hi
        elif hi == 0 or ha == 0:
            ranks[p] = 0
        else:
            return RestrictedCohomology(
                False,
                None,
                page,
                ideal,
                f"the degree-{p} connecting rank is not forced",
            )
    table = {}
    for p in range(top + 1):
        h = ambient.get(p, 0) - ranks[p] + ideal.get(p + 1, 0) - ranks[p + 1]
        assert h >= 0
        if h:
            table[p] = h
    assert all(p <= n * n - 1 for p in table), "cohomology beyond dim Y"
    return RestrictedCohomology(True, table, page, ideal, None)


def deformation_sweep(n: int) -> dict:
    """Cohomology of the two bundle families controlling the tangent page:

      family 1:  wedge^n Q (x) Q (x) wedge^l Q(-2l-1)
      family 2:  Q (x) wedge^l Q(-2l)

    for 1 <= l <= n+1, the l >= 1 cells of the Koszul pages of
    wedge^n Q(-1) (x) Q and of Q.  Returns every nonzero (family, l, degree,
    dim) cell, ordered by l, then family; family 2 vanishing identically is
    what splices family 1 into the tangent restriction one degree up.
    """
    q = Bundle((), (1,), 0)
    pages = (
        (1, koszul_page(tensor(wedge_q(n, n, -1), q, n), n)),
        (2, koszul_page(q, n)),
    )
    cells = sorted(
        (l, fam, p, d) for fam, page in pages for (l, p), d in page.items() if l >= 1
    )
    nonzero = [{"family": fam, "l": l, "degree": p, "dim": d} for l, fam, p, d in cells]
    return {"n": n, "top_degree": n * n + n, "nonzero": nonzero}


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
