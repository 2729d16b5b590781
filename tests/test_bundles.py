"""Tensor decompositions and the vanishing-claims sweep."""

import random
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod
from operator import sub

import pytest

from cypairs.bundles import (
    Bundle,
    _twisted_schur_vanishing,
    cohomology_table,
    koszul_page,
    rank,
    tensor,
    verify_vanishing_claims,
    wedge_q,
)
from cypairs.bwb import bott, canonicalize, cohomology, to_weight
from cypairs.koszul import _vertical_strips, family_dimension
from cypairs.partitions import littlewood_richardson, partitions_of, trim, weyl_dimension

Q = Bundle((), (1,), 0)
UDUAL = Bundle((1,), (), 0)


def random_bundle(rng, n):
    def part(max_rows):
        row = rng.randint(0, 3)
        out = []
        for _ in range(rng.randint(0, max_rows)):
            out.append(row)
            row = rng.randint(0, row) if row else 0
        return tuple(x for x in out if x)

    return Bundle(part(n), part(n + 1), rng.randint(-3, 3))


def test_wedge_q_canonical_forms():
    assert wedge_q(0, 2) == Bundle((), (), 0)
    assert wedge_q(2, 2, -1) == Bundle((), (1, 1), -1)
    assert wedge_q(3, 2) == Bundle((), (), 1)  # top wedge is O(1)
    assert wedge_q(5, 4, 2) == Bundle((), (), 3)
    with pytest.raises(ValueError):
        wedge_q(4, 2)


def test_quotient_square():
    assert tensor(Q, Q, 2) == {
        Bundle((), (2,), 0): 1,
        Bundle((), (1, 1), 0): 1,
    }


def test_sub_square_picks_up_twist():
    # U* (x) U* on G(2,5): the exterior square is det U* = O(1)
    assert tensor(UDUAL, UDUAL, 2) == {
        Bundle((2,), (), 0): 1,
        Bundle((), (), 1): 1,
    }


def test_tensor_is_commutative_and_associative():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 3)
        a, b, c = (random_bundle(rng, n) for _ in range(3))
        ab = tensor(a, b, n)
        assert ab == tensor(b, a, n)
        assert tensor(ab, c, n) == tensor(a, tensor(b, c, n), n)


def test_tensor_preserves_rank():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 4)
        a, b = random_bundle(rng, n), random_bundle(rng, n)
        got = sum(m * rank(s, n) for s, m in tensor(a, b, n).items())
        assert got == rank(a, n) * rank(b, n)


def test_tensor_rejects_a_summand_too_long_for_the_grassmannian():
    # as canonicalize does, rather than dropping the summand
    with pytest.raises(ValueError, match="too long"):
        tensor(Bundle((1, 1, 1), (), 0), Bundle(), 2)
    with pytest.raises(ValueError, match="too long"):
        tensor(Q, {Bundle((), (1,) * 4, 0): 1, Q: 1}, 2)
    # full columns are fine and are absorbed into the twist
    assert tensor(Bundle((1, 1), (1, 1, 1), 0), Bundle(), 2) == {Bundle((), (), 2): 1}


def test_endomorphism_bundles_are_simple():
    for n in (2, 3):
        end_q = tensor(wedge_q(n, n, -1), Q, n)  # Q* (x) Q
        u = Bundle((1,) * (n - 1), (), -1)  # U = wedge^{n-1} U* (x) O(-1)
        end_u = tensor(UDUAL, u, n)
        assert cohomology_table(end_q, n) == {0: 1}
        assert cohomology_table(end_u, n) == {0: 1}


def test_cohomology_table_merges_multiplicities():
    # (U* (x) Q)^{+2 copies}: the table scales linearly
    single = cohomology_table(Bundle((1,), (1,), 0), 2)
    double = cohomology_table({Bundle((1,), (1,), 0): 2}, 2)
    assert double == {p: 2 * d for p, d in single.items()}


# ------------------------------------------------------------ Koszul pages


def reference_koszul_page(f, n):
    # the page by the general tensor product, kept as the reference: each
    # column wedge^l Q(-2l) goes through Littlewood-Richardson, canonicalize
    # and the cohomology table of every summand
    page = {}
    for l in range(n + 2):
        for q, d in cohomology_table(tensor(f, wedge_q(l, n, -2 * l), n), n).items():
            page[(l, q)] = d
    return page


def test_vertical_strips_are_the_pieri_products():
    # s_q * e_l = sum of s_mu over the vertical l-strips mu/q, each once
    for rows in range(1, 6):
        for w in range(7):
            for q in partitions_of(w, max_part=3, max_rows=rows):
                padded = q + (0,) * (rows - len(q))
                strips = _vertical_strips(padded)
                assert all(len(mu) == rows for mu, _ in strips)
                for l in range(rows + 1):
                    got = Counter(trim(mu) for mu, k in strips if k == l)
                    assert got == littlewood_richardson(q, (1,) * l, rows), (q, l)
                assert len(strips) == len(set(strips))


def test_koszul_page_matches_tensor_reference_on_claim_pages(monkeypatch):
    # every page the vanishing claims and the family dimension read, n = 2..8
    seen = []

    def record(f, n):
        seen.append((f, n))
        return koszul_page(f, n)

    monkeypatch.setattr("cypairs.bundles.koszul_page", record)
    monkeypatch.setattr("cypairs.koszul.koszul_page", record)
    for n in range(2, 9):
        verify_vanishing_claims(n)
        family_dimension(n, detail=True)
    monkeypatch.undo()
    assert {n for _, n in seen} == set(range(2, 9))
    for f, n in seen:
        assert koszul_page(f, n) == reference_koszul_page(f, n), (f, n)


def test_koszul_page_matches_tensor_reference_on_random_bundles():
    # irreducible bundles, not canonical when a part has full height, and
    # sums with multiplicities
    rng = random.Random(20)
    for _ in range(150):
        n = rng.randint(1, 5)
        a, b = random_bundle(rng, n), random_bundle(rng, n)
        assert koszul_page(a, n) == reference_koszul_page(a, n), (a, n)
        f = {a: rng.randint(1, 3), b: rng.randint(1, 3)}
        assert koszul_page(f, n) == reference_koszul_page(f, n), (f, n)
        f = tensor(a, b, n)
        assert koszul_page(f, n) == reference_koszul_page(f, n), (f, n)


def test_koszul_page_rejects_n_below_one():
    with pytest.raises(ValueError):
        koszul_page(Q, 0)


# ------------------------------------------------------------- the claims


def test_claims_have_no_failures():
    for n in (2, 3):
        report = verify_vanishing_claims(n)
        assert report["status"] in ("pass", "deviation")
        assert all(c["status"] != "fail" for c in report["checks"])


def check_by_name(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def box(n):
    # q in the (n+1) x (n-1) box, graded lex
    for w in range((n - 1) * (n + 1) + 1):
        yield from partitions_of(w, max_part=n - 1, max_rows=n + 1)


@lru_cache(maxsize=None)
def twisted_schur_by_cases(n):
    # the per-case sweep kept as the reference: canonicalize, then the Bott
    # walk, for every (q, i)
    cases = 0
    escapes = []
    for q in box(n):
        for i in range(1, 2 * n + 1):
            cases += 1
            c = cohomology(canonicalize(Bundle((), q, -i), n), n)
            if c is not None:
                escapes.append({"q": q, "twist": -i, "degree": c.degree, "dim": c.dim})
    return cases, escapes


def test_twisted_schur_escapes_are_full_rows():
    # the lemma the sweep's rule states, on the per-case listing: every
    # escape has n+1 rows, a twist no deeper than its last row, and degree 0
    for n in range(2, 9):
        _, escapes = twisted_schur_by_cases(n)
        assert escapes, n
        for e in escapes:
            assert len(e["q"]) == n + 1 and -e["twist"] <= e["q"][-1], (n, e)
            assert e["degree"] == 0, (n, e)
    c = check_by_name(verify_vanishing_claims(3), "twisted_schur_vanishing")
    assert c["status"] == "deviation"
    assert "n+1 rows" in c["rule"] and "degree 0" in c["rule"]


def test_twisted_schur_sweep_matches_per_case_walk():
    for n in range(2, 9):
        got = _twisted_schur_vanishing(n)
        cases, escapes = twisted_schur_by_cases(n)
        assert got["cases"] == cases, n
        assert got["escape_count"] == len(escapes), n
        assert got["escape_h0_total"] == sum(e["dim"] for e in escapes), n
        # closed forms: the box has C(2n, n-1) partitions and there are 2n
        # twists; the escapes are the r = q - i^(n+1) in the (n+1) x (n-1-i)
        # boxes, summed over i by the hockey stick
        assert got["cases"] == 2 * n * comb(2 * n, n - 1), n
        assert got["escape_count"] == comb(2 * n, n - 2), n


@pytest.mark.parametrize("n", [9, 10])
def test_twisted_schur_sweep_beyond_the_walk(n):
    # past the per-case walk's range the reference is the lemma's listing:
    # the (q, i) with q of n+1 rows and i <= q_n, each with the Weyl
    # dimension of q - i^(n+1) for GL(2n+1)
    got = _twisted_schur_vanishing(n)
    h0_weights = [
        tuple(x - i for x in q)
        for q in box(n) if len(q) == n + 1 for i in range(1, q[-1] + 1)
    ]
    dim = lru_cache(maxsize=None)(lambda r: weyl_dimension(r, 2 * n + 1))
    assert got["cases"] == 2 * n * comb(2 * n, n - 1)
    assert got["escape_count"] == len(h0_weights) == comb(2 * n, n - 2)
    assert got["escape_h0_total"] == sum(map(dim, h0_weights))


def twisted_schur_by_row_prefixes(n):
    # the sweep's former route, kept as the reference: one table of Weyl
    # numerators for every r in the (n+1) x (n-2) box, filled by a walk over
    # row prefixes, each r weighted by its n-1-r_0 escapes
    cross = [
        [prod(r + b - a for b in range(n + 1, 2 * n + 1)) for r in range(n - 1)]
        for a in range(n + 1)
    ]
    # numerators by row prefix
    nums = {(): 1}
    for a in range(n + 1):
        nums = {
            r + (x,): num * cross[a][x] * prod(map(sub, r, range(x - a, x)))
            for r, num in nums.items()
            for x in range(r[-1] + 1 if r else n - 1)
        }
    den = prod(factorial(k) for k in range(n, 2 * n + 1))
    count = total = 0
    for r, num in nums.items():
        dim, rem = divmod(num, den)
        assert rem == 0 and dim >= 1
        count += n - 1 - r[0]
        total += (n - 1 - r[0]) * dim
    return count, total


@pytest.mark.parametrize("n", range(2, 11))
def test_twisted_schur_pfaffian_matches_the_row_prefix_table(n):
    # n = 2..10 covers both parities of n+1, bordered and not
    got = _twisted_schur_vanishing(n)
    assert (got["escape_count"], got["escape_h0_total"]) == twisted_schur_by_row_prefixes(n)


@pytest.mark.parametrize("n, total", [
    (11, 828674028328655751589190988662609124569825904),
    (12, 571992589681541904357215006635632692086297131084763431),
])
def test_twisted_schur_h0_total_past_the_table(n, total):
    # both routes gave these; the table takes seconds from n = 12 on
    got = _twisted_schur_vanishing(n)
    assert got["escape_count"] == comb(2 * n, n - 2)
    assert got["escape_h0_total"] == total


def test_twisted_schur_collision_interval():
    # S^q(Q)(-i) is acyclic exactly when a shifted q entry lies in (i, i+n];
    # otherwise its degree is n times the number of shifted q entries <= i,
    # and with none of them the weight is already dominant
    for n in range(2, 7):
        for q in box(n):
            padded = q + (0,) * (n + 1 - len(q))
            shifted = [x + 2 * n + 1 - j for j, x in enumerate(padded)]
            for i in range(1, 2 * n + 1):
                weight = to_weight(Bundle((), q, -i), n)
                res = bott(weight)
                # the lemma the sweep lists its escapes by
                assert (res is not None) == (len(q) == n + 1 and i <= q[-1]), (n, q, i)
                collides = any(i < s <= i + n for s in shifted)
                assert collides == (res is None), (n, q, i)
                if collides:
                    continue
                below = sum(1 for s in shifted if s <= i)
                assert res[0] == n * below, (n, q, i)
                if below == 0:
                    assert res[1] == weight, (n, q, i)


def test_double_wedge_single_escape():
    for n in (2, 3):
        c = check_by_name(verify_vanishing_claims(n), "double_wedge_vanishing")
        assert c["escapes"] == [{"k": n + 1, "l": 0, "low_degrees": {0: 1}}]


def test_normal_page_escapes():
    c2 = check_by_name(verify_vanishing_claims(2), "normal_page_vanishing")
    assert c2["escapes"] == {0: {0: 75}, 1: {0: 1}, 2: {2: 1}}
    c3 = check_by_name(verify_vanishing_claims(3), "normal_page_vanishing")
    assert c3["escapes"] == {0: {0: 784}, 1: {0: 1}}
    assert c3["sections"] == comb(7, 3) ** 2 - comb(7, 2) ** 2


def test_deformation_page_degree_discrepancy():
    for n in (2, 3):
        c = check_by_name(verify_vanishing_claims(n), "deformation_page_vanishing")
        assert c["degree_discrepancy"] is True
        assert c["claimed_degree"] == n * n - n
        assert c["computed_degree"] == n * n + n
        assert c["top_cell"] == [
            {"family": 1, "l": n + 1, "degree": n * n + n, "dim": 1}
        ]


def test_deformation_page_degree_follows_the_top_cell(monkeypatch):
    # computed_degree is read off the single (family 1, l = n+1) cell, so a
    # sweep whose top cell moves must move it too and grade the claim fail
    from cypairs import koszul

    sweep = koszul.deformation_sweep

    def moved(n):
        out = sweep(n)
        for c in out["nonzero"]:
            if c["family"] == 1 and c["l"] == n + 1:
                c["degree"] = n * n - 1
        return out

    def doubled(n):
        out = sweep(n)
        out["nonzero"] = out["nonzero"] + out["nonzero"][-1:]
        return out

    monkeypatch.setattr("cypairs.bundles.deformation_sweep", moved)
    c = check_by_name(verify_vanishing_claims(3), "deformation_page_vanishing")
    assert c["computed_degree"] == 8
    assert c["status"] == "fail"
    monkeypatch.setattr("cypairs.bundles.deformation_sweep", doubled)
    c = check_by_name(verify_vanishing_claims(3), "deformation_page_vanishing")
    assert c["computed_degree"] is None
    assert c["degree_discrepancy"] is True
    assert c["status"] == "fail"


def test_restricted_sections_rows():
    r2 = check_by_name(verify_vanishing_claims(2), "restricted_sections")
    assert r2["status"] == "pass"
    assert all(row["match"] for row in r2["rows"])
    r3 = check_by_name(verify_vanishing_claims(3), "restricted_sections")
    assert r3["status"] == "deviation"
    by_label = {row["bundle"]: row for row in r3["rows"]}
    assert by_label["O(1)"]["match"] and by_label["Q"]["match"]
    assert by_label["Q*(2)"]["ambient_h0"] == 784
    assert by_label["Q*(2)"]["restricted_h0"] == 783
