"""Koszul restriction to the zero locus Y and the family-dimension count."""

import random
from math import comb

import pytest

from cypairs.bwb import Bundle, canonicalize, serre_dual
from cypairs.bundles import tensor, wedge_q
from cypairs.koszul import (
    deformation_sweep,
    family_dimension,
    koszul_page,
    restricted_cohomology,
)
from cypairs.partitions import partitions_of

Q = Bundle((), (1,), 0)
TANGENT = Bundle((1,), (1,), 0)


def normal_bundle(n):
    return Bundle((), (1,) * n, 1)  # Q*(2) rewritten over Q


def euler(table):
    return sum((-1) ** p * d for p, d in table.items())


# ------------------------------------------------------------------ pages


def test_normal_page_cells():
    assert koszul_page(normal_bundle(2), 2) == {(0, 0): 75, (1, 0): 1, (2, 2): 1}
    assert koszul_page(normal_bundle(3), 3) == {(0, 0): 784, (1, 0): 1}


def test_tangent_page_cells():
    assert koszul_page(TANGENT, 2) == {(0, 0): 24, (1, 1): 1, (2, 3): 1, (3, 5): 1}
    assert koszul_page(TANGENT, 3) == {(0, 0): 48, (4, 11): 1}


def test_restricted_tables():
    assert restricted_cohomology(normal_bundle(2), 2).table == {0: 75}
    assert restricted_cohomology(TANGENT, 2).table == {0: 25, 1: 1, 2: 1}
    assert restricted_cohomology(normal_bundle(3), 3).table == {0: 783}
    assert restricted_cohomology(TANGENT, 3).table == {0: 48, 7: 1}


def test_structure_sheaf_of_y_is_calabi_yau():
    # only degrees 0 and dim Y = n^2 - 1 survive, each one-dimensional
    for n in (2, 3, 4):
        res = restricted_cohomology(Bundle((), (), 0), n)
        assert res.determinate
        assert res.table == {0: 1, n * n - 1: 1}


def test_polarization_and_quotient_restrict_cleanly():
    for n in (2, 3, 4):
        assert restricted_cohomology(Bundle((), (), 1), n).table == {
            0: comb(2 * n + 1, n)
        }
        assert restricted_cohomology(Q, n).table == {0: 2 * n + 1}


def test_indeterminate_restriction_is_reported():
    res = restricted_cohomology(Bundle((), (), -3), 2)
    assert not res.determinate
    assert res.table is None
    assert "differential" in res.reason


# ------------------------------------------------------- exactness checks


def test_euler_characteristic_is_conserved():
    # chi(F|_Y) must equal the alternating page sum whenever the two-stage
    # assembly claims a determinate answer
    rng = random.Random(17)
    checked = 0
    fixed = [Bundle((), (), t) for t in range(-7, 4)]
    fixed += [Q, TANGENT, normal_bundle(2), Bundle((1,), (), 0)]
    for n in (2, 3):
        pool = fixed + [
            Bundle(
                (rng.randint(0, 2),),
                tuple(sorted((rng.randint(0, 2) for _ in range(2)), reverse=True)),
                rng.randint(-4, 2),
            )
            for _ in range(20)
        ]
        for f in pool:
            res = restricted_cohomology(f, n)
            if not res.determinate:
                continue
            per_column = {}
            for (l, q), d in res.page.items():
                per_column[l] = per_column.get(l, 0) + (-1) ** q * d
            rhs = sum((-1) ** l * c for l, c in per_column.items())
            assert euler(res.table) == rhs, (n, f)
            checked += 1
    assert checked > 30


@pytest.mark.parametrize("n", [2, 3])
def test_serre_duality_on_y(n):
    # Y is Calabi-Yau of dimension n^2 - 1, so h^p(F|_Y) = h^{n^2-1-p}(F*|_Y);
    # F* is serre_dual(F) = F* (x) O(-2n-1) twisted back by O(2n+1)
    small = [p for w in range(3) for p in partitions_of(w)]
    bundles = [
        Bundle(u, q, t)
        for u in small if len(u) <= n
        for q in small if len(q) <= n + 1
        for t in range(-4, 4)
    ]
    top = n * n - 1
    pairs = 0
    for f in bundles:
        if canonicalize(f, n) != f:
            continue
        s = serre_dual(f, n)
        res = restricted_cohomology(f, n)
        dual = restricted_cohomology(Bundle(s.u, s.q, s.t + 2 * n + 1), n)
        if not (res.determinate and dual.determinate):
            continue
        pairs += 1
        for p in range(top + 1):
            assert res.table.get(p, 0) == dual.table.get(top - p, 0), (f, p)
    assert pairs > 0


def test_tangent_page_splices_into_first_family():
    # 0 -> Q* -> V* -> U* -> 0 tensored with Q (x) wedge^l Q(-2l): since the
    # middle column has no cohomology, the U*-column equals the Q*-column
    # shifted one degree up
    for n in (2, 3):
        for l in range(1, n + 2):
            t_col = tensor(TANGENT, wedge_q(l, n, -2 * l), n)
            fam1 = tensor(
                tensor(wedge_q(n, n, -1), Q, n), wedge_q(l, n, -2 * l), n
            )
            from cypairs.bundles import cohomology_table

            t_table = cohomology_table(t_col, n)
            f_table = cohomology_table(fam1, n)
            assert f_table == {p + 1: d for p, d in t_table.items()}, (n, l)


def test_deformation_sweep_cells():
    assert deformation_sweep(2)["nonzero"] == [
        {"family": 1, "l": 1, "degree": 2, "dim": 1},
        {"family": 1, "l": 2, "degree": 4, "dim": 1},
        {"family": 1, "l": 3, "degree": 6, "dim": 1},
    ]
    assert deformation_sweep(3)["nonzero"] == [
        {"family": 1, "l": 4, "degree": 12, "dim": 1}
    ]
    assert deformation_sweep(4)["nonzero"] == [
        {"family": 1, "l": 5, "degree": 20, "dim": 1}
    ]


# ------------------------------------------------------- family dimension


def test_family_dimension_small():
    assert family_dimension(2) == 51
    assert family_dimension(3) == 735
    assert family_dimension(4) == 8739


def test_family_dimension_binomial_oracle():
    # for n >= 3 the tangent restriction contributes the traceless ambient
    # algebra and nothing else, so the count collapses to pure binomials
    for n in range(3, 9):
        N = 2 * n + 1
        oracle = comb(N, n) ** 2 - comb(N, n - 1) ** 2 - (N * N - 1) - 1
        assert family_dimension(n) == oracle


def test_family_dimension_detail():
    d = family_dimension(2, detail=True)
    assert d == {
        "n": 2,
        "normal_sections": 75,
        "tangent_sections": 25,
        "obstruction_kernel": 1,
        "dimension": 51,
    }
    with pytest.raises(ValueError):
        family_dimension(1)
