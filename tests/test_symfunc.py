"""Plethysm s_lambda[e_n], determinant multiplicities, witness search."""

import random
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypairs import symfunc
from cypairs.partitions import conjugate, partitions_of, trim, weyl_dimension
from cypairs.symfunc import (
    BudgetExceeded,
    _count_dtype,
    _Slots,
    _tableau_tables,
    _wedge_letters,
    _wedge_table,
    determinant_multiplicity,
    dimension_gap,
    find_witness,
    plethysm_wedge,
)


# ---------------------------------------------------------------- oracles


def standard_tableaux_count(shape):
    """Hook length formula, independent of the package."""
    shape = tuple(shape)
    total = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            total *= arm + leg + 1
    return factorial(sum(shape)) // total


def _sized_strips(mu, shape, size):
    """mu' with mu <= mu' <= shape, mu'/mu a horizontal strip of |size| boxes."""
    rows = len(shape)
    mu = tuple(mu) + (0,) * (rows - len(mu))
    out = []

    def rec(i, acc, left):
        if i == rows:
            if left == 0:
                out.append(tuple(x for x in acc if x))
            return
        hi = min(shape[i], mu[i] + left, acc[-1] if acc else shape[0])
        if i > 0:
            hi = min(hi, mu[i - 1])
        for v in range(hi, mu[i] - 1, -1):
            rec(i + 1, acc + [v], left - (v - mu[i]))

    rec(0, [], size)
    return out


def kostka_number(shape, content):
    """Semistandard tableaux of the given shape and content, by a chain DP."""
    shape = tuple(shape)
    states = {(): 1}
    for c in content:
        new = {}
        for mu, cnt in states.items():
            for mu2 in _sized_strips(mu, shape, c):
                new[mu2] = new.get(mu2, 0) + cnt
        states = new
    return states.get(shape, 0)


def gl_dimension(mu, d):
    """dim of the GL(d) irreducible of highest weight mu, by the hook-content
    formula: the product over cells of (d + content) / hook."""
    mu = [x for x in mu if x]
    cols = [sum(1 for row in mu if row > j) for j in range(mu[0])] if mu else []
    out = Fraction(1)
    for i, row in enumerate(mu):
        for j in range(row):
            out *= Fraction(d + j - i, (row - j) + (cols[j] - i) - 1)
    assert out.denominator == 1
    return int(out)


def dominant_table(lam, n, N):
    """{dominant exponent: coefficient} of s_lam[e_n] in N variables."""
    slots, arr = _wedge_table(lam, n, N, sum(lam))
    exps, _ = slots.table(n * sum(lam))
    return {
        tuple(e): c
        for e, c in zip(exps.tolist(), arr.tolist())
        if c and all(e[i] >= e[i + 1] for i in range(N - 1))
    }


def straighten(table, N):
    """Schur expansion of a dominant monomial table: repeatedly subtract the
    Schur polynomial of the lex-greatest dominant exponent, whose own
    coefficient there is 1, with Kostka numbers from the chain DP."""
    table = dict(table)
    out = {}
    while table:
        alpha = max(table)
        c = table[alpha]
        assert c > 0, (alpha, c)
        out[trim(alpha)] = c
        for beta in partitions_of(sum(alpha), max_rows=N):
            beta = beta + (0,) * (N - len(beta))
            t = table.get(beta, 0) - c * kostka_number(trim(alpha), beta)
            if t:
                table[beta] = t
            else:
                table.pop(beta, None)
    return out


def even_column_partitions(weight, max_rows):
    """Shapes of Sym^k(wedge^2 V): every column has even length."""
    return {
        lam
        for lam in partitions_of(weight, max_rows=max_rows)
        if all(c % 2 == 0 for c in conjugate(lam))
    }


def frobenius_staircase_partitions(weight, max_rows):
    """Shapes of wedge^k(wedge^2 V): Frobenius coordinates (a | a+1)."""
    good = set()
    for lam in partitions_of(weight, max_rows=max_rows):
        co = conjugate(lam)
        d = sum(1 for i in range(len(lam)) if lam[i] > i)
        arms = [lam[i] - i - 1 for i in range(d)]
        legs = [co[i] - i - 1 for i in range(d)]
        if all(legs[i] == arms[i] + 1 for i in range(d)):
            good.add(lam)
    return good


def shapes_by_dfs(bound, w):
    """Every partition inside `bound` with at most w boxes, row by row."""
    out = []

    def rec(prefix, left):
        out.append(prefix)
        i = len(prefix)
        if i < len(bound):
            for v in range(1, min(bound[i], left, prefix[-1] if prefix else left) + 1):
                rec(prefix + (v,), left - v)

    rec((), w)
    return out


# ------------------------------------------------------------ small cases


def test_plethysm_linear_is_elementary():
    assert plethysm_wedge((1,), 2) == {(1, 1): 1}
    assert plethysm_wedge((1,), 3) == {(1, 1, 1): 1}
    assert plethysm_wedge((), 2) == {(): 1}


def test_plethysm_degree_two():
    assert plethysm_wedge((2,), 2) == {(2, 2): 1, (1, 1, 1, 1): 1}
    assert plethysm_wedge((1, 1), 2) == {(2, 1, 1): 1}


def test_plethysm_too_many_rows_vanishes():
    # S^lam(wedge^n V) = 0 once lam has more than binomial(N, n) rows
    assert plethysm_wedge((1,) * 3, 1, N=2) == {}


def test_symmetric_powers_of_wedge_two_even_column_rule():
    for k in range(1, 6):
        exp = plethysm_wedge((k,), 2, N=5)
        assert set(exp) == even_column_partitions(2 * k, 5)
        assert all(c == 1 for c in exp.values())


def test_exterior_powers_of_wedge_two_staircase_rule():
    for k in range(1, 7):
        exp = plethysm_wedge((1,) * k, 2, N=5)
        assert set(exp) == frobenius_staircase_partitions(2 * k, 5)
        assert all(c == 1 for c in exp.values())


def test_top_exterior_power_is_determinant_power():
    # wedge^10 of the 10-dimensional wedge^2 C^5 is det^4
    assert plethysm_wedge((1,) * 10, 2, N=5) == {(4, 4, 4, 4, 4): 1}
    assert determinant_multiplicity((1,) * 10, 2) == (4, 1)


# ------------------------------------------------------------- properties


def test_dimension_consistency():
    # summing dim S^mu(C^N) over the expansion recovers dim S^lam(wedge^n C^N)
    for n in (2, 3):
        N = 2 * n + 1
        M = comb(N, n)
        for w in range(1, 5):
            for lam in partitions_of(w):
                exp = plethysm_wedge(lam, n)
                got = sum(c * weyl_dimension(mu, N) for mu, c in exp.items())
                assert got == weyl_dimension(lam, M), (n, lam)


def test_degrees_and_positivity():
    rng = random.Random(0)
    pool = [lam for w in range(1, 7) for lam in partitions_of(w)]
    for _ in range(40):
        lam = rng.choice(pool)
        exp = plethysm_wedge(lam, 2, N=5)
        for mu, c in exp.items():
            assert c > 0
            assert sum(mu) == 2 * sum(lam)
            assert len(mu) <= 5
            assert mu == trim(mu)


def test_alternation_matches_straightening():
    # every Schur coefficient is read off the monomial table by Weyl
    # alternation; straightening the same table is an independent route
    for lam, n, N in [(lam, 2, 5) for w in range(1, 6) for lam in partitions_of(w)] + [
        ((2, 1, 1, 1), 3, 7),
        ((1,) * 5, 2, 10),
    ]:
        assert plethysm_wedge(lam, n, N, budget=15) == straighten(
            dominant_table(lam, n, N), N
        ), (lam, n, N)


def test_shared_pass_matches_single_shape():
    # the witness search reads every shape of a degree from one DP pass
    for n, N, top in ((2, 5, 10), (3, 7, 4)):
        letters = _wedge_letters(n, N)
        M = len(letters)
        for w in range(1, top + 1):
            shared = _tableau_tables(letters, _Slots(N, w), (w,) * min(w, M), w)
            shapes = list(partitions_of(w, max_rows=M))
            assert set(shared) == set(shapes)
            for lam in shapes:
                single = _tableau_tables(letters, _Slots(N, w), lam, w)
                assert np.array_equal(shared[lam], single[lam]), (N, lam)


@pytest.mark.parametrize("bound", [(), (1,), (3, 2, 1), (4, 4, 4), (7, 4, 2, 1, 1)])
def test_shapes_match_dfs(bound):
    for w in range(sum(bound) + 1):
        got = symfunc._shapes(bound, w)
        assert len(got) == len(set(got))
        assert set(got) == set(shapes_by_dfs(bound, w)), (bound, w)
        # largest first: every strip source of a shape comes after it
        assert [sum(nu) for nu in got] == sorted(map(sum, got), reverse=True)


@st.composite
def plethysm_cases(draw):
    lam = draw(st.sampled_from([lam for w in range(4) for lam in partitions_of(w)]))
    N = draw(st.integers(1, 10))
    n = draw(st.integers(1, min(N, max(1, 10 // max(1, sum(lam))))))
    return lam, n, N


@settings(max_examples=40, deadline=None)
@given(plethysm_cases())
def test_expansion_dimension_matches_hook_content(case):
    # sum of c_mu dim V_mu(GL_N) = dim S^lam(wedge^n C^N)
    lam, n, N = case
    exp = plethysm_wedge(lam, n, N)
    assert all(c > 0 for c in exp.values())
    got = sum(c * gl_dimension(mu, N) for mu, c in exp.items())
    assert got == gl_dimension(lam, comb(N, n))


def test_exact_codes_in_many_variables():
    # base^N of the slot codes passes 2^63 here: 5^30 for the first case
    assert _Slots(30, 4).weights.dtype == object
    assert plethysm_wedge((4,), 1, N=30) == {(4,): 1}
    assert plethysm_wedge((2,), 2, N=30) == {(2, 2): 1, (1, 1, 1, 1): 1}


def test_count_dtype_switches_at_two_to_the_63():
    # a count of shape nu over M letters is at most M^|nu|
    assert _count_dtype(2, 62) is np.int64
    assert _count_dtype(2, 63) is object
    assert _count_dtype(3, 40) is object
    # the witness (10^15) and plethysm (35^5, 10^10) passes stay on int64
    for M, w in ((10, 15), (35, 5), (10, 10)):
        assert _count_dtype(M, w) is np.int64
    # two letters of e_1 in 2 variables and 63 boxes run on Python integers
    _, arr = _wedge_table((40, 23), 1, 2, 63)
    assert arr.dtype == object
    assert plethysm_wedge((40, 23), 1, N=2, budget=63) == {(40, 23): 1}


def test_object_counts_match_int64(monkeypatch):
    letters = _wedge_letters(2, 5)
    w = 6
    want = _tableau_tables(letters, _Slots(5, w), (w,) * w, w)
    expansion = plethysm_wedge((2, 2, 1, 1), 2)
    monkeypatch.setattr(symfunc, "_count_dtype", lambda M, w: object)
    got = _tableau_tables(letters, _Slots(5, w), (w,) * w, w)
    assert set(got) == set(want)
    for lam, arr in got.items():
        assert arr.dtype == object and want[lam].dtype == np.int64
        assert arr.tolist() == want[lam].tolist(), lam
    assert plethysm_wedge((2, 2, 1, 1), 2) == expansion


def test_determinant_multiplicities_sum_to_kostka():
    # (wedge^2 V)^{tensor d} = sum over lam of S^lam(wedge^2 V)^{f^lam}, so
    # weighting determinant multiplicities by f^lam must give the coefficient
    # of s_{(k^5)} in e_2^d, a Kostka number of the conjugate shape
    for d, k in ((5, 2), (10, 4)):
        total = 0
        for lam in partitions_of(d, max_rows=10):
            got_k, mult = determinant_multiplicity(lam, 2)
            assert got_k == k
            total += standard_tableaux_count(lam) * mult
        assert total == kostka_number((5,) * k, (2,) * d)


def test_kostka_oracle_known_values():
    assert kostka_number((5, 5), (2,) * 5) == 6
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((3, 3), (2, 2, 2)) == 1


# ------------------------------------------- determinant powers, witnesses


def test_determinant_multiplicity_degree_obstruction():
    assert determinant_multiplicity((2,), 2) == (None, 0)
    assert determinant_multiplicity((3, 1), 2) == (None, 0)


def test_degree_five_multiplicities():
    # the only partition of 5 whose plethysm contains det^2 is (3,1,1)
    hits = {
        lam: m
        for lam in partitions_of(5)
        for _, m in [determinant_multiplicity(lam, 2)]
        if m
    }
    assert hits == {(3, 1, 1): 1}
    assert standard_tableaux_count((3, 1, 1)) == 6


def test_no_witness_in_low_degree():
    assert find_witness(2, 10) is None
    assert find_witness(3, 4) is None


def test_witness_multiplicity_at_degree_fifteen():
    # first multiplicity >= 2 for n = 2 sits in degree 15; the single lookup
    # and the full expansion use different exponent caps
    assert determinant_multiplicity((7, 4, 2, 1, 1), 2, budget=30) == (6, 2)
    assert plethysm_wedge((7, 4, 2, 1, 1), 2, budget=30)[(6,) * 5] == 2


def test_budget_enforcement():
    with pytest.raises(BudgetExceeded):
        plethysm_wedge((5,), 3)  # degree 15 over the default budget 14
    with pytest.raises(BudgetExceeded):
        find_witness(2, 11, budget=10)
    # an explicit budget unlocks the same call
    assert plethysm_wedge((5,), 3, budget=15)


def test_dimension_gap_values():
    assert dimension_gap(1) == (3, 9, False)
    assert dimension_gap(2) == (45, 25, True)
    assert dimension_gap(3) == (595, 49, True)
