"""Tensor calculus for homogeneous bundles on G(n, 2n+1) and the vanishing
claims behind the family-dimension count.

Tensor products decompose by the Littlewood-Richardson rule applied to the
U*-parts (rank n) and Q-parts (rank n+1) separately; full exterior columns
are absorbed into twists.  `verify_vanishing_claims` sweeps a fixed table of
cohomology vanishing claims and grades each one:

  pass       the claim holds on the stated domain
  deviation  the computation disagrees with the claim as stated, in a way
             that is expected and recorded (boundary cases, a degree that
             comes out different, small-n exceptions)
  fail       an unexplained disagreement

The claims are exactly the vanishing statements that make the Koszul
restriction of the normal and tangent pages determinate.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb

from .bwb import Bundle, canonicalize, cohomology
from .partitions import littlewood_richardson, partitions_of, weyl_dimension


def wedge_q(k: int, n: int, t: int = 0) -> Bundle:
    """wedge^k Q (x) O(t) as a canonical Bundle; k must lie in [0, n+1]."""
    if not 0 <= k <= n + 1:
        raise ValueError(f"wedge^{k} of the rank-{n + 1} quotient")
    return canonicalize(Bundle((), (1,) * k, t), n)


# every status the engine reports, mildest first
_SEVERITY = ("pass", "assumption", "indeterminate", "deviation", "fail")


def overall_status(statuses) -> str:
    """The most severe of the statuses; no statuses is an error, not a pass."""
    return _SEVERITY[max(_SEVERITY.index(s) for s in statuses)]


def rank(b: Bundle, n: int) -> int:
    """Rank of the bundle: product of the two Weyl dimensions."""
    return weyl_dimension(b.u, n) * weyl_dimension(b.q, n + 1)


def _as_summands(x) -> dict:
    if isinstance(x, Bundle):
        return {x: 1}
    return dict(x)


def tensor(x, y, n: int) -> dict:
    """Decomposition of the tensor product into canonical bundles.

    Both arguments may be a Bundle or a {Bundle: multiplicity} dict; the
    result is a {Bundle: multiplicity} dict.
    """
    out = {}
    for a, ma in _as_summands(x).items():
        for b, mb in _as_summands(y).items():
            us = littlewood_richardson(a.u, b.u, n)
            qs = littlewood_richardson(a.q, b.q, n + 1)
            for u, cu in us.items():
                for q, cq in qs.items():
                    s = canonicalize(Bundle(u, q, a.t + b.t), n)
                    out[s] = out.get(s, 0) + ma * mb * cu * cq
    return {b: m for b, m in out.items() if m}


def cohomology_table(x, n: int) -> dict:
    """{degree: dimension} of the cohomology of a bundle or sum of bundles."""
    table = {}
    for b, m in _as_summands(x).items():
        c = cohomology(b, n)
        if c is not None:
            table[c.degree] = table.get(c.degree, 0) + m * c.dim
    return {p: d for p, d in sorted(table.items()) if d}


def koszul_page(f, n: int) -> dict:
    """Nonzero cells {(l, q): dim H^q(F (x) wedge^l Q(-2l))} for l in
    [0, n+1], ordered by l, then q; F may be a Bundle or a {Bundle:
    multiplicity} dict.  These are the terms of the Koszul resolution of the
    zero locus of Q*(2), tensored with F."""
    page = {}
    for l in range(n + 2):
        for q, d in cohomology_table(tensor(f, wedge_q(l, n, -2 * l), n), n).items():
            page[(l, q)] = d
    return page


def _low_cells(page, n: int) -> dict:
    """{l: {q: dim}} of the page cells below degree n+1."""
    low = {}
    for (l, q), d in page.items():
        if q < n + 1:
            low.setdefault(l, {})[q] = d
    return low


# ------------------------------------------------------------------------
# the vanishing claims


def _box_partitions(max_part, max_rows):
    for w in range(max_part * max_rows + 1):
        yield from partitions_of(w, max_part=max_part, max_rows=max_rows)


def _twisted_schur_vanishing(n: int) -> dict:
    """Claim: S^q(Q)(-i) has no cohomology for q in the (n+1) x (n-1) box
    and 0 < i < 2n+1.

    Rows of full height n+1 act as extra twists, so part of the stated box
    escapes: whenever the last row is at least i the bundle is a nonnegative
    twist in disguise and has sections.  Those escapes are recorded; the rest
    of the box must vanish identically.

    Bott's collision rule decides each case without the walk.  The rho-shifted
    weight of S^q(Q)(-i) is q_j + 2n+1 - j on the n+1 rows of q (0-based j)
    followed by i+n, ..., i+1, and both blocks are strictly decreasing, so the
    bundle is acyclic exactly when some shifted q entry lies in (i, i+n].
    Only the survivors go through `cohomology`; they skip `canonicalize`,
    since stripping full columns shifts the whole weight by a constant and
    changes neither the degree nor the dimension.
    """
    escapes = []
    cases = 0
    twists = range(1, 2 * n + 1)
    for q in _box_partitions(n - 1, n + 1):
        cases += len(twists)
        padded = q + (0,) * (n + 1 - len(q))
        # increasing; its last entry q_0 + 2n+1 exceeds every twist i
        shifted = [padded[j] + 2 * n + 1 - j for j in range(n, -1, -1)]
        for i in twists:
            if shifted[bisect_right(shifted, i)] <= i + n:
                continue
            c = cohomology(Bundle((), q, -i), n)
            escapes.append({"q": q, "twist": -i, "degree": c.degree, "dim": c.dim})
    expected = all(
        len(e["q"]) == n + 1 and e["q"][-1] >= -e["twist"] and e["degree"] == 0
        for e in escapes
    )
    return {
        "name": "twisted_schur_vanishing",
        "status": ("deviation" if escapes else "pass") if expected else "fail",
        "cases": cases,
        "escapes": escapes,
        "note": "escapes are exactly the full-height rows that shift the "
        "twist out of range",
    }


def _double_wedge_vanishing(n: int) -> dict:
    """Claim: wedge^k Q (x) wedge^l Q (-1-2l) has no cohomology in degree
    p < n+1, for 0 <= k, l <= n+1: the Koszul page of wedge^k Q(-1) for each
    k.  The corner k = n+1, l = 0 is the trivial bundle and escapes with its
    section."""
    escapes = [
        {"k": k, "l": l, "low_degrees": low}
        for k in range(n + 2)
        for l, low in _low_cells(koszul_page(wedge_q(k, n, -1), n), n).items()
    ]
    expected = escapes == [{"k": n + 1, "l": 0, "low_degrees": {0: 1}}]
    return {
        "name": "double_wedge_vanishing",
        "status": "deviation" if expected else "fail",
        "cases": (n + 2) ** 2,
        "escapes": escapes,
    }


def _normal_page_vanishing(n: int) -> dict:
    """Claim: Q*(2) (x) wedge^k Q(-2k) has no cohomology in degree p < n+1
    for 0 <= k <= n+1.

    k = 0 is the normal twist itself, with its full space of sections, and
    k = 1 contains End(Q) with its identity; both escape in degree 0.  For
    n = 2 the k = 2 page picks up one extra class in degree 2.  Everything
    else must vanish below degree n+1.
    """
    f = Bundle((), (1,) * n, 1)  # Q*(2) rewritten over Q
    escapes = _low_cells(koszul_page(f, n), n)
    sections = comb(2 * n + 1, n) ** 2 - comb(2 * n + 1, n - 1) ** 2
    expected = {0: {0: sections}, 1: {0: 1}}
    if n == 2:
        expected[2] = {2: 1}
    return {
        "name": "normal_page_vanishing",
        "status": "deviation" if escapes == expected else "fail",
        "cases": n + 2,
        "escapes": escapes,
        "sections": sections,
    }


def _deformation_page(n: int) -> dict:
    """Claim: the two deformation-page families vanish for 1 <= l <= n+1
    except a single one-dimensional class at l = n+1, claimed in degree
    n^2 - n.  The class is real but its degree computes to n^2 + n (the top),
    which is recorded as a degree discrepancy.  For n = 2 the first family
    has two extra interior classes."""
    from .koszul import deformation_sweep

    sweep = deformation_sweep(n)
    cells = sweep["nonzero"]
    claimed_degree = n * n - n
    top_cell = [
        c for c in cells if c["family"] == 1 and c["l"] == n + 1
    ]
    expected = [{"family": 1, "l": n + 1, "degree": n * n + n, "dim": 1}]
    if n == 2:
        expected = [
            {"family": 1, "l": 1, "degree": 2, "dim": 1},
            {"family": 1, "l": 2, "degree": 4, "dim": 1},
        ] + expected
    return {
        "name": "deformation_page_vanishing",
        "status": "deviation" if cells == expected else "fail",
        "nonzero": cells,
        "top_cell": top_cell,
        "claimed_degree": claimed_degree,
        "computed_degree": sweep["top_degree"],
        "degree_discrepancy": claimed_degree != sweep["top_degree"],
    }


def _restricted_sections(n: int) -> dict:
    """Claim: restricting O(1), Q and Q*(2) to the zero locus Y of a general
    section of Q*(2) preserves the space of sections.  O(1) and Q do; Q*(2)
    loses exactly the one section cutting Y once n > 2."""
    from .koszul import restricted_cohomology

    rows = []
    for label, b, ambient_h0 in (
        ("O(1)", Bundle((), (), 1), comb(2 * n + 1, n)),
        ("Q", Bundle((), (1,), 0), 2 * n + 1),
        ("Q*(2)", Bundle((), (1,) * n, 1), None),
    ):
        res = restricted_cohomology(b, n)
        assert res.determinate, label
        if ambient_h0 is None:
            ambient_h0 = res.page.get((0, 0), 0)  # H^0 of Q*(2) itself
        rows.append(
            {
                "bundle": label,
                "ambient_h0": ambient_h0,
                "restricted_h0": res.table.get(0, 0),
                "match": res.table.get(0, 0) == ambient_h0,
            }
        )
    ok = rows[0]["match"] and rows[1]["match"]
    last = rows[2]
    if last["match"]:
        status = "pass" if ok else "fail"
    elif last["restricted_h0"] == last["ambient_h0"] - 1 and ok:
        status = "deviation"
    else:
        status = "fail"
    return {"name": "restricted_sections", "status": status, "rows": rows}


def verify_vanishing_claims(n: int) -> dict:
    """Run every vanishing claim for one n and aggregate the statuses."""
    if n < 2:
        raise ValueError("the claims are stated for n >= 2")
    checks = [
        _twisted_schur_vanishing(n),
        _double_wedge_vanishing(n),
        _normal_page_vanishing(n),
        _deformation_page(n),
        _restricted_sections(n),
    ]
    status = overall_status(c["status"] for c in checks)
    return {"n": n, "status": status, "checks": checks}
