"""End-to-end acceptance checks, each with an explicit runtime budget.

One test per headline guarantee: dimension anchors, the two family
dimension counts, the claims suite, the motivic and Hodge certificates,
the exactness corpora (duality, product rules, Pluecker algebra) and Euler
conservation under restriction.

One check is recorded in a deliberately failing state:
test_degree_ten_witness_exists asserts a repeated determinant power below
degree 10 which an exhaustive scan shows not to exist (the first witness
sits at degree 15).  The failure is the recorded result; do not relax it.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from cypairs.bundles import Bundle, verify_vanishing_claims
from cypairs.bwb import cohomology, serre_dual
from cypairs.hodge import middle_decomposition
from cypairs.koszul import deformation_sweep, family_dimension, restricted_cohomology
from cypairs.motivic import l_equivalence_certificate
from cypairs.partitions import littlewood_richardson, partitions_of, weyl_dimension
from cypairs.pluecker import (
    compound,
    det,
    inverse,
    mat_mul,
    mat_vec,
    pluecker_embed,
    section_eval,
    transpose,
    transposition_action,
)
from cypairs.symfunc import find_witness, plethysm_wedge


def small_partitions(max_boxes, max_rows):
    for boxes in range(max_boxes + 1):
        yield from partitions_of(boxes, max_rows=max_rows)


def test_core_dimension_anchors_are_fast():
    # budget: 5 seconds
    start = time.perf_counter()
    assert weyl_dimension((2, 2, 1), 5) == 75
    assert weyl_dimension((2, 1, 1, 1), 5) == 24
    assert family_dimension(2) == 51
    assert time.perf_counter() - start < 5.0


def test_family_dimension_next_size():
    # budget: 60 seconds
    start = time.perf_counter()
    value = family_dimension(3)
    assert value == 735
    assert value == comb(7, 3) ** 2 - comb(7, 2) ** 2 - 48 - 1
    assert time.perf_counter() - start < 60.0


def test_claims_suite_has_no_failures():
    # budget: 300 seconds, covering both sizes
    start = time.perf_counter()
    for n in (3, 4):
        report = verify_vanishing_claims(n)
        assert report["status"] != "fail"
        assert all(c["status"] != "fail" for c in report["checks"])
        page = next(
            c for c in report["checks"] if c["name"] == "deformation_page_vanishing"
        )
        assert page["degree_discrepancy"] is True
        assert page["claimed_degree"] == n * n - n
        assert page["computed_degree"] == n * n + n
        sweep = deformation_sweep(n)
        assert sweep["nonzero"] == [
            {"family": 1, "l": n + 1, "degree": n * n + n, "dim": 1}
        ]
    assert time.perf_counter() - start < 300.0


def test_claims_suite_at_nine_is_fast():
    # budget: 2 seconds; the twisted-Schur sweep alone covers 787,644 cases
    start = time.perf_counter()
    report = verify_vanishing_claims(9)
    assert time.perf_counter() - start < 2.0
    assert report["status"] == "deviation"
    assert all(c["status"] != "fail" for c in report["checks"])
    # the closed forms of tests/test_bundles.py at n = 9
    sweep = report["checks"][0]
    assert sweep["name"] == "twisted_schur_vanishing"
    assert sweep["cases"] == 18 * comb(18, 8) == 787644
    assert sweep["escape_count"] == comb(18, 7) == 31824


def test_claims_report_at_ten_is_small():
    # the sweep reports its rule, count and H^0 total, not its 125,970
    # escapes one by one
    report = verify_vanishing_claims(10)
    assert len(json.dumps(report)) < 4096
    assert report["checks"][0]["escape_count"] == comb(20, 8) == 125970


def test_claims_suite_at_sixteen_is_fast():
    # budget: 1 second; the sweep reads its H^0 total off 15 Pfaffians
    # where the table of row prefixes would hold over 10^8 entries
    start = time.perf_counter()
    report = verify_vanishing_claims(16)
    assert time.perf_counter() - start < 1.0
    assert all(c["status"] != "fail" for c in report["checks"])
    sweep = report["checks"][0]
    assert sweep["name"] == "twisted_schur_vanishing"
    assert sweep["escape_count"] == comb(32, 14) == 471435600
    assert sweep["cases"] == 32 * comb(32, 15) == 18103127040


# sha256 of json.dumps(..., sort_keys=True) of each report.  The
# family_dimension digests were recorded before the Koszul pages moved to the
# dual Pieri rule.  The verify_vanishing_claims digests were recorded again
# when the sweep's escape listing became its rule, count and H^0 total, after
# checking, for n = 2..10, that the new report is the old one with the
# listing replaced by its length and its dimension sum
CLAIM_DIGESTS = {
    (5, "verify_vanishing_claims"): "1ae6e3b4b9765e6c790b2fedcd47a6d5d7933d38f6a15cec53d04577c55fa570",
    (5, "family_dimension"): "9e53afef3f7ac7b14c841e3a1d1d35f2798db365426d4bbfba9f94e8b29bdd81",
    (6, "verify_vanishing_claims"): "9c8294588748430cd319b1a1856c8216041131f86298901e350bc38923682b64",
    (6, "family_dimension"): "b42781352c95aac99d4d256af7acc21cac0c5d8bad3a32463156b455ea08d789",
    (7, "verify_vanishing_claims"): "8fcbd05d169b4500a91c2c73cfe6b9b52ce2ccd43ce94c6946100b50efaa05a5",
    (7, "family_dimension"): "6983a621d469e93639a141717280f8a4a4fd843ccac4bd0c217ad3d63c4db1b0",
    (8, "verify_vanishing_claims"): "3258aeed5a66447371a36dd9f7911e82ae21cacba684408ffced7ef486675848",
    (8, "family_dimension"): "e889586c73934724d7809cfef90fd281dcb880c235bc79c8bb97c5336e0f8a59",
    # recorded from the row-prefix sweep, before the minor-summation Pfaffian
    (9, "verify_vanishing_claims"): "8ea272e7fee9db6692c758142d41136edcb78620df6f65ac790b2b1ce7a428f7",
    (10, "verify_vanishing_claims"): "a779a1979461fbbd4da0700e5b349a620b1ae27e3d5eebf4068e5a33da7140e2",
    (11, "verify_vanishing_claims"): "29e3cb8c5611d09b0a655fefc407060dc20d353510dc12c1c3b88d6006bb6f02",
    (12, "verify_vanishing_claims"): "ff9cf3884bcf81166c3507e5f5bfe8a616a2b70b3c1c1ba56855cbfc609abc08",
    # recorded from the LPoly-based motivic layer, before classes became
    # plain coefficient lists
    (5, "l_equivalence_certificate"): "6dc53eb117f731a7a28f895d7f6d22dc9378af12258c30440ff8f59a390f04ff",
    (5, "middle_decomposition"): "429bc3990ee2d5b58791760b6ed1433eb81c86242f36b8e7173210a93bb7c970",
    (8, "l_equivalence_certificate"): "b1d36da4c19260c35ccc25bfeb9d0ad041940f71360c06f6b9c9099fd4fb0809",
    (8, "middle_decomposition"): "c755dda21b1760add63604d1080e381780e0c5bd6da4d0d0b9a6d1d089ad9a8e",
    (12, "l_equivalence_certificate"): "d196398d7991988e1a7438cdefe26017d43e7feb228d62a562b5b02b90f18e18",
    (12, "middle_decomposition"): "416d81f1cd91cd46354305004807c003459c2f7cbc6ebcc915ec8a24bcc26b3a",
    (40, "l_equivalence_certificate"): "a564a26efe531987f300e121d9e878aea6f55cd3533e520e1c32b955d98597e1",
    (40, "middle_decomposition"): "2ded7372928f9643409f03e088790b41ba0569c6310341e13462ea87c88d3e07",
}

REPORTS = {
    "verify_vanishing_claims": verify_vanishing_claims,
    "family_dimension": lambda n: family_dimension(n, detail=True),
    "l_equivalence_certificate": l_equivalence_certificate,
    "middle_decomposition": middle_decomposition,
}


@pytest.mark.parametrize("n, name", sorted(CLAIM_DIGESTS))
def test_claim_reports_match_recorded_digests(n, name):
    # budget: 1 second per report
    start = time.perf_counter()
    report = REPORTS[name](n)
    assert time.perf_counter() - start < 1.0
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLAIM_DIGESTS[n, name]


def test_l_equivalence_certificates():
    # budget: 1 second
    start = time.perf_counter()
    for n in range(2, 6):
        cert = l_equivalence_certificate(n)
        assert cert["ok"], cert["checks"]
        assert cert["multiplier_exponent"] == n
    assert time.perf_counter() - start < 1.0


def test_middle_hodge_parity():
    # budget: 1 second
    start = time.perf_counter()
    for n in range(2, 7):
        dec = middle_decomposition(n)
        assert dec["all_vanish"] == (n % 2 == 0)
        assert dec["parity_matches_n"]
    assert time.perf_counter() - start < 1.0


def test_degree_ten_witness_exists():
    """A repeated determinant power in a second-wedge Schur functor of
    degree at most 10.

    The search is exhaustive and exact over every admissible shape in that
    range, and finds nothing: the smallest witness has degree 15 (located
    by test_first_witness_is_at_degree_fifteen).  The assertion is kept at
    degree 10 on purpose; its failure records that no lower-degree witness
    exists.
    """
    assert find_witness(2, 10) is not None


def test_first_witness_is_at_degree_fifteen():
    # budget: 5 seconds
    start = time.perf_counter()
    assert find_witness(2, 15, budget=30) == ((7, 4, 2, 1, 1), 6, 2)
    assert time.perf_counter() - start < 5.0


def test_first_witness_for_n_three_is_at_degree_seven():
    # budget: 5 seconds; the full expansion reads det^3 off the uniform-cap
    # table, a second route to the characteristic map of the search
    start = time.perf_counter()
    assert find_witness(3, 7, budget=21) == ((4, 1, 1, 1), 3, 2)
    assert plethysm_wedge((4, 1, 1, 1), 3, budget=21)[(3,) * 7] == 2
    assert time.perf_counter() - start < 5.0


def test_serre_duality_corpus():
    # budget: 60 seconds; at least 500 bundles, exact dimensions
    start = time.perf_counter()
    checked = 0
    for n in (2, 3, 4):
        top = n * (n + 1)
        us = list(small_partitions(4, n - 1))
        qs = list(small_partitions(4, n))
        for u in us:
            for q in qs:
                for t in range(-(2 * n + 3), 2 * n + 4):
                    b = Bundle(u, q, t)
                    group = cohomology(b, n)
                    dual_group = cohomology(serre_dual(b, n), n)
                    if group is None:
                        assert dual_group is None
                    else:
                        assert dual_group is not None
                        assert group.degree + dual_group.degree == top
                        assert group.dim == dual_group.dim
                    checked += 1
    assert checked >= 500
    assert time.perf_counter() - start < 60.0


def test_littlewood_richardson_bilinearity():
    # budget: 60 seconds; every pair with |a| + |b| <= 8 at every rank <= 7
    start = time.perf_counter()

    def dim(p, r):
        return weyl_dimension(p, r) if len(p) <= r else 0

    shapes = list(small_partitions(8, 8))
    for a in shapes:
        for b in shapes:
            if sum(a) + sum(b) > 8:
                continue
            for r in range(1, 8):
                product = littlewood_richardson(a, b, r)
                assert product == littlewood_richardson(b, a, r)
                total = sum(c * dim(lam, r) for lam, c in product.items())
                assert total == dim(a, r) * dim(b, r)
    assert time.perf_counter() - start < 60.0


def test_pluecker_exactness_corpus():
    # budget: 60 seconds; 50 seeded cases per identity, all exact
    start = time.perf_counter()
    rng = random.Random(20260814)

    def rand(rows, cols, lo=-5, hi=5):
        return tuple(
            tuple(Fraction(rng.randint(lo, hi)) for _ in range(cols))
            for _ in range(rows)
        )

    def rand_invertible(d):
        while True:
            m = rand(d, d, -3, 3)
            if det(m):
                return m

    for _ in range(50):
        m, p, q = rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 5)
        k = rng.randint(1, min(m, p, q))
        a, b = rand(m, p), rand(p, q)
        assert compound(mat_mul(a, b), k) == mat_mul(compound(a, k), compound(b, k))

    checked = 0
    while checked < 50:
        n, big = rng.randint(1, 3), rng.randint(4, 6)
        a = rand(n, big)
        g = rand_invertible(big)
        try:
            coords = pluecker_embed(a)
        except ValueError:
            continue
        moved = pluecker_embed(mat_mul(a, g))
        assert moved == mat_vec(transpose(compound(g, n)), coords)
        checked += 1

    for _ in range(50):
        d = rng.randint(2, 5)
        s = rand(d, d)
        m = rand_invertible(d)
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
        y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
        twisted = transposition_action(s, m)
        assert section_eval(twisted, x, y) == section_eval(
            s, mat_vec(transpose(inverse(m)), y), mat_vec(m, x)
        )
    assert time.perf_counter() - start < 60.0


def test_euler_conservation_under_restriction():
    # budget: 120 seconds; conservation must hold for every determinate case
    start = time.perf_counter()
    rng = random.Random(2024)
    determinate = 0
    for n in (2, 3):
        bundles = [
            Bundle((), (), 0),
            Bundle((), (), 1),
            Bundle((), (), 2),
            Bundle((), (1,), 0),
            Bundle((1,), (), 0),
            Bundle((1,), (1,), 0),
            Bundle((), (1,) * n, 2),
            Bundle((), (2,), 0),
            Bundle((1, 1) if n > 2 else (1,), (1,), 1),
        ]
        while len(bundles) < 24:
            u = tuple(
                sorted((rng.randint(0, 2) for _ in range(n - 1)), reverse=True)
            )
            q = tuple(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))
            t = rng.randint(-1, 3)
            bundles.append(
                Bundle(
                    tuple(x for x in u if x),
                    tuple(x for x in q if x),
                    t,
                )
            )
        for b in bundles:
            result = restricted_cohomology(b, n)
            if not result.determinate:
                continue
            lhs = sum((-1) ** p * d for p, d in result.table.items())
            rhs = sum((-1) ** (l + q) * d for (l, q), d in result.page.items())
            assert lhs == rhs, (b, result.table)
            determinate += 1
    assert determinate >= 30
    assert time.perf_counter() - start < 120.0
