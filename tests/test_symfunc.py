"""Plethysm s_lambda[e_n], determinant multiplicities, witness search."""

import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypairs import partitions, symfunc
from cypairs.partitions import _border_strips, conjugate, partitions_of, trim, weyl_dimension
from cypairs.symfunc import (
    BudgetExceeded,
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
    slots = _ReferenceSlots(N, sum(lam))
    arr = _tableau_tables(_wedge_letters(n, N), slots, lam, sum(lam))[lam]
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


class _ReferenceSlots:
    """The slot tables of the reference tableau DP: every exponent vector of
    length N with every entry at most `cap`, one table per degree in lex
    order, codes in base cap+1 (Python integers once (cap+1)^N reaches 2^63).
    A shift by x^v drops the vectors it pushes over the cap."""

    def __init__(self, N, cap):
        self.N = N
        self.cap = cap
        base = cap + 1
        dtype = np.int64 if base**N < 2**63 else object
        self.weights = np.array([base ** (N - 1 - i) for i in range(N)], dtype=dtype)
        self._tables = {}

    def table(self, d):
        got = self._tables.get(d)
        if got is None:
            exps = self._vectors(d)
            got = self._tables[d] = (exps, exps @ self.weights)
        return got

    def _vectors(self, d):
        N, cap = self.N, self.cap
        exps = np.zeros((1, 0), dtype=np.int64)
        left = np.array([d], dtype=np.int64)
        for i in range(N - 1):
            lo = np.maximum(left - (N - 1 - i) * cap, 0)
            counts = np.maximum(np.minimum(left, cap) - lo + 1, 0)
            rows = np.repeat(np.arange(len(left)), counts)
            starts = np.cumsum(counts) - counts
            v = lo[rows] + np.arange(len(rows)) - starts[rows]
            exps = np.column_stack([exps[rows], v])
            left = left[rows] - v
        return np.column_stack([exps, left])[left <= cap]

    def shift(self, d, v):
        exps, codes = self.table(d)
        src = np.nonzero((exps + v <= self.cap).all(axis=1))[0]
        _, tgt = self.table(d + int(v.sum()))
        dst = np.searchsorted(tgt, codes[src] + v @ self.weights)
        return src, dst


def _wedge_letters(n, N):
    """The monomials of e_n in N variables, lex ordered on sorted subsets."""
    return np.array(
        [[1 if j in s else 0 for j in range(N)] for s in combinations(range(N), n)],
        dtype=np.int64,
    )


def _shapes(bound, w):
    """Every partition inside the shape `bound` with at most w boxes, largest
    first."""
    top = bound[0] if bound else 0
    return [
        nu
        for size in range(min(w, sum(bound)), -1, -1)
        for nu in partitions_of(size, max_part=top, max_rows=len(bound))
        if all(x <= y for x, y in zip(nu, bound))
    ]


def _strip_sources(nu):
    """Every mu != nu such that nu/mu is a horizontal strip."""
    lower = nu[1:] + (0,)
    ranges = [range(lo, hi + 1) for lo, hi in zip(lower, nu)]
    return [tuple(x for x in mu if x) for mu in product(*ranges) if mu != nu]


def _count_dtype(M, w):
    """dtype of the DP counts for shapes of size at most w over M letters.

    A count of shape nu is a number of semistandard tableaux of shape nu with
    one content, at most dim S^nu(C^M) <= M^|nu|.  So int64 holds every count
    while M^w < 2^63, and Python integers are used beyond that.
    """
    return np.int64 if M**w < 2**63 else object


def _tableau_tables(letters, slots, bound, w):
    """Exponent tables of s_nu over the letters, for every shape nu of size w
    inside `bound` with at most len(letters) rows, from one DP over the
    letters on the slot tables `slots`.

    A shape is kept only while the letters left can still add the horizontal
    strips that complete it to size w inside `bound`, and while its table is
    not all zero; a dropped shape of size w gets a zero table.  Each letter
    updates the shapes in place, largest first: every source of a shape is
    strictly smaller, so it still holds its value from before the letter.
    The sources of one strip size share a shift map, so their moved entries
    are summed and added once.
    """
    deg = int(letters[0].sum())
    order = _shapes(bound, w)
    sources = {}
    for nu in order:
        by_size = sources[nu] = {}
        for mu in _strip_sources(nu):
            by_size.setdefault(sum(mu), []).append(mu)
    # fewest letters (horizontal strips) that complete each shape
    need = {nu: 0 if sum(nu) == w else len(letters) + 1 for nu in order}
    for nu in order:
        for by_size in sources[nu].values():
            for mu in by_size:
                need[mu] = min(need[mu], need[nu] + 1)
    dtype = _count_dtype(len(letters), w)
    state = {(): np.ones(1, dtype=dtype)}
    for i, letter in enumerate(letters):
        rem = len(letters) - 1 - i
        maps = {}
        for nu in order:
            # a strip adds at most one row to a shape of at most i rows
            if need[nu] > rem or len(nu) > i + 1:
                continue
            size = sum(nu)
            tgt = state.get(nu)
            for msize, mus in sources[nu].items():
                arrs = [state[mu] for mu in mus if mu in state]
                if not arrs:
                    continue
                key = (msize, size - msize)
                m = maps.get(key)
                if m is None:
                    m = maps[key] = slots.shift(msize * deg, letter * (size - msize))
                src, dst = m
                if not len(src):
                    continue
                if tgt is None:
                    _, codes = slots.table(size * deg)
                    tgt = state[nu] = np.zeros(len(codes), dtype=dtype)
                moved = arrs[0][src]
                for arr in arrs[1:]:
                    moved += arr[src]
                tgt[dst] += moved
        state = {mu: arr for mu, arr in state.items() if need[mu] <= rem and arr.any()}
    _, codes = slots.table(w * deg)
    return {
        nu: state[nu] if nu in state else np.zeros(len(codes), dtype=dtype)
        for nu in order
        if sum(nu) == w and len(nu) <= len(letters)
    }


def permutation_sign(p):
    inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return -1 if inversions % 2 else 1


def det_lookup_betas(n, w):
    """{beta: sign} over S_N of x^beta, beta_i = k - i + p(i), that the
    s_(k^N) lookup reads in degree w: every entry in [0, w]."""
    N = 2 * n + 1
    k = n * w // N
    out = {}
    for p in permutations(range(N)):
        beta = tuple(k - i + p[i] for i in range(N))
        if all(0 <= b <= w for b in beta):
            out[beta] = permutation_sign(p)
    return out


def reference_det_coefficients(n, w):
    """{lam: multiplicity of det^k in S^lam(wedge^n V)} for every lam of size
    w, from the uniform-cap tables of one pass, read by a plain sum over S_N."""
    N = 2 * n + 1
    k = n * w // N
    letters = _wedge_letters(n, N)
    slots = _ReferenceSlots(N, min(k + N - 1, w))
    tables = _tableau_tables(letters, slots, (w,) * min(w, len(letters)), w)
    exps, _ = slots.table(n * w)
    position = {e: j for j, e in enumerate(map(tuple, exps.tolist()))}
    reads = [(position[b], sign) for b, sign in det_lookup_betas(n, w).items()]
    return {
        lam: sum(sign * int(arr[j]) for j, sign in reads) for lam, arr in tables.items()
    }


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
    # and the determinant lookup reads 0: 15 rows against the 10 letters of e_2
    assert determinant_multiplicity((1,) * 15, 2, budget=30) == (6, 0)


def test_plethysm_too_many_rows_skips_the_walk(monkeypatch):
    # 11 rows against the C(5, 2) = 10 monomials of e_2: the vanishing is
    # read before any walk, after the budget check (the degree is 22)
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(symfunc, "_walk", walk)
    assert plethysm_wedge((1,) * 11, 2, N=5, budget=22) == {}
    assert plethysm_wedge((1,) * 6, 1, N=5) == {}
    with pytest.raises(BudgetExceeded):
        plethysm_wedge((1,) * 11, 2, N=5, budget=21)
    with pytest.raises(ValueError):
        plethysm_wedge((1,) * 11, 2, N=5, budget=-1)


def test_plethysm_walks_on_at_most_n_lam_rows():
    # budget: 0.5 seconds at N = 100,000; a shape of n|lam| boxes has at
    # most n|lam| rows, so the expansion is the same for every N >= n|lam|
    t0 = time.perf_counter()
    assert plethysm_wedge((2, 1), 2, N=100_000) == plethysm_wedge((2, 1), 2, N=6)
    assert time.perf_counter() - t0 < 0.5
    for n in (2, 3):
        for w in range(1, 4):
            for lam in partitions_of(w):
                want = plethysm_wedge(lam, n, N=n * w, budget=n * w)
                for N in range(n * w + 1, n * w + 4):
                    assert plethysm_wedge(lam, n, N=N, budget=n * w) == want, (lam, n, N)


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
    # plethysm_wedge reads every Schur coefficient by the characteristic-map
    # walk; straightening the reference DP's monomial table is an
    # independent route
    for lam, n, N in [(lam, 2, 5) for w in range(1, 6) for lam in partitions_of(w)] + [
        ((2, 1, 1, 1), 3, 7),
        ((1,) * 5, 2, 10),
    ]:
        assert plethysm_wedge(lam, n, N, budget=15) == straighten(
            dominant_table(lam, n, N), N
        ), (lam, n, N)


def test_shared_pass_matches_single_shape():
    # one DP pass yields every shape of a degree, as the determinant
    # reference reads them
    for n, N, top in ((2, 5, 10), (3, 7, 4)):
        letters = _wedge_letters(n, N)
        M = len(letters)
        for w in range(1, top + 1):
            shared = _tableau_tables(letters, _ReferenceSlots(N, w), (w,) * min(w, M), w)
            shapes = list(partitions_of(w, max_rows=M))
            assert set(shared) == set(shapes)
            for lam in shapes:
                single = _tableau_tables(letters, _ReferenceSlots(N, w), lam, w)
                assert np.array_equal(shared[lam], single[lam]), (N, lam)


@pytest.mark.parametrize("lam", [(2, 2), (3, 1), (2, 1, 1)])
def test_plethysm_n_four_matches_straightening(lam):
    # budget: 0.5 seconds for s_lam[e_4] in 9 variables, degree 16; the
    # reference DP and straightening share no code with the walk
    t0 = time.perf_counter()
    got = plethysm_wedge(lam, 4, 9, budget=16)
    assert time.perf_counter() - t0 < 0.5
    assert got == straighten(dominant_table(lam, 4, 9), 9)


@pytest.mark.parametrize("w", range(9))
def test_walk_at_n_one_is_schur(w):
    # s_lam[e_1] = s_lam: the general walk, which plethysm_wedge skips at
    # n = 1, gives s_lam on N beads, and 0 once lam has more than N rows
    for lam in partitions_of(w):
        for N in range(1, 5):
            got = partitions._walk(lam, (), N)
            assert got == ({lam: 1} if len(lam) <= N else {}), (lam, N)


@pytest.mark.parametrize("bound", [(), (1,), (3, 2, 1), (4, 4, 4), (7, 4, 2, 1, 1)])
def test_shapes_match_dfs(bound):
    for w in range(sum(bound) + 1):
        got = _shapes(bound, w)
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
    assert _ReferenceSlots(30, 4).weights.dtype == object
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
    arr = _tableau_tables(_wedge_letters(1, 2), _ReferenceSlots(2, 63), (40, 23), 63)[(40, 23)]
    assert arr.dtype == object
    assert plethysm_wedge((40, 23), 1, N=2, budget=63) == {(40, 23): 1}


def test_object_counts_match_int64(monkeypatch):
    letters = _wedge_letters(2, 5)
    w = 6
    want = _tableau_tables(letters, _ReferenceSlots(5, w), (w,) * w, w)
    expansion = plethysm_wedge((2, 2, 1, 1), 2)
    monkeypatch.setattr(sys.modules[__name__], "_count_dtype", lambda M, w: object)
    got = _tableau_tables(letters, _ReferenceSlots(5, w), (w,) * w, w)
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


# (n, w) -> K_{((2n+1)^k), (n^w)}, the coefficient of s_(k^N) in e_n^w
WINDOW_CASES = {
    (1, 3): 1,
    (1, 6): 5,
    (1, 9): 42,
    (2, 5): 6,
    (2, 10): 3396,
    (2, 15): 9475466,
    (3, 7): 225,
}


@pytest.mark.parametrize("n, w", sorted(WINDOW_CASES))
def test_windowed_det_coefficients_match_uniform_cap(n, w):
    # the characteristic map gives every coefficient read off the
    # uniform-cap tableau DP; and (wedge^n V)^{tensor w} = sum of
    # S^lam(wedge^n V)^{f^lam} gives the Kostka sum
    N = 2 * n + 1
    got = symfunc._det_multiplicities(n, w, n * w)[1]
    want = reference_det_coefficients(n, w)
    # the walk keeps the nonzero multiplicities only
    assert got == {lam: m for lam, m in want.items() if m}
    if w <= 10:  # the single-shape lookup reads the same map, zeros included,
        # on every shape with at most as many rows as e_n has monomials
        k = n * w // N
        shapes = list(partitions_of(w, max_rows=comb(N, n)))
        assert {lam: determinant_multiplicity(lam, n, n * w) for lam in shapes} == {
            lam: (k, want[lam]) for lam in shapes
        }
    total = sum(standard_tableaux_count(lam) * m for lam, m in got.items())
    assert total == WINDOW_CASES[n, w] == kostka_number((N,) * (n * w // N), (n,) * w)
    if n == 1:  # S^lam(V) holds det^k exactly when lam = (k^3), once
        assert {lam: m for lam, m in got.items() if m} == {(w // 3,) * 3: 1}


def beta_set(lam, beads):
    """The bitmask of {lam_i + beads - i}, lam padded with zeros."""
    lam = tuple(lam) + (0,) * (beads - len(lam))
    return sum(1 << (x + beads - 1 - i) for i, x in enumerate(lam))


def centralizer_order(rho):
    """z_rho = prod over part sizes i of i^(m_i) m_i!."""
    return prod(i ** rho.count(i) * factorial(rho.count(i)) for i in set(rho))


def strip_walk(terms, parts, grow):
    """{beads: coefficient} after moving strips of the given sizes."""
    for m in parts:
        out = {}
        for b, x in terms.items():
            for b2, sign in _border_strips(b, m, grow):
                out[b2] = out.get(b2, 0) + sign * x
        terms = {b: x for b, x in out.items() if x}
    return terms


def reference_border_strips(beads, m, grow):
    """The strip loop that tests every bead for a free target."""
    out = []
    rest = beads
    while rest:
        bit = rest & -rest
        rest ^= bit
        p = bit.bit_length() - 1
        q = p + m if grow else p - m
        if q >= 0 and not beads >> q & 1:
            jumped = beads >> (min(p, q) + 1) & (1 << (m - 1)) - 1
            out.append((beads ^ bit ^ 1 << q, -1 if jumped.bit_count() & 1 else 1))
    return out


def spread(out, terms, images, *args):
    """Adds to `out` the image of `terms` under the linear map that sends
    each shape b to images(b, *args); returns `out`."""
    for b, x in terms.items():
        for b2, y in images(b, *args):
            out[b2] = out.get(b2, 0) + x * y
    return out


def reference_strip_maps(n):
    """(strips, wedge): p_m and n! p_m[e_n], the latter as the sum over
    sigma |- n of eps_sigma (n! / z_sigma) p_(m sigma), moving strips of
    sizes m*sigma one part of sigma at a time."""
    strips = lru_cache(maxsize=None)(reference_border_strips)
    unit = factorial(n)
    terms = [
        ((-1) ** (n - len(s)) * unit // centralizer_order(s), s)
        for s in partitions_of(n)
    ]

    @lru_cache(maxsize=None)
    def wedge(beads, m, grow):
        got = Counter()
        for c, sigma in terms:
            moved = {beads: c}
            for part in sigma:
                moved = spread({}, moved, strips, m * part, grow)
            got.update(moved)
        return [(b, x) for b, x in got.items() if x]

    return strips, wedge


@pytest.mark.parametrize("n", range(1, 6))
def test_bead_moves_match_the_sigma_sum(n):
    # n! times the one-move map of p_m[e_n] is the sigma-sum map, and the
    # strip map is the all-beads loop, on every bead set within 9 places;
    # no two moves of one set give the same beta-set
    ref_strips, ref_wedge = reference_strip_maps(n)
    for m, grow, beads in product(range(1, 7), (False, True), range(1 << 9)):
        got = _border_strips(beads, m, grow, n)
        assert len({b for b, _ in got}) == len(got)
        want = dict(ref_wedge(beads, m, grow))
        assert {b: factorial(n) * x for b, x in got} == want, (beads, m, grow)
        assert sorted(_border_strips(beads, m, grow)) == sorted(ref_strips(beads, m, grow))


@pytest.mark.parametrize("w", range(9))
def test_border_strip_characters_agree_and_are_orthogonal(w):
    # chi^lam(rho) by adding the strips of rho to the empty shape equals the
    # one by removing them from lam down to it; the columns are orthogonal,
    # sum over lam of chi^lam(rho) chi^lam(sigma) = z_rho [rho = sigma]; the
    # column of 1^w is f^lam; and with fewer beads than rows, adding strips
    # gives the same characters on every shape that still fits
    shapes = list(partitions_of(w))
    empty = (1 << w) - 1
    table = {}
    for rho in shapes:
        up = strip_walk({empty: 1}, rho, True)
        for lam in shapes:
            down = strip_walk({beta_set(lam, w): 1}, rho, False)
            table[lam, rho] = up.get(beta_set(lam, w), 0)
            assert table[lam, rho] == down.get(empty, 0), (lam, rho)
        for beads in range(w):
            few = strip_walk({(1 << beads) - 1: 1}, rho, True)
            assert few == {
                beta_set(lam, beads): table[lam, rho]
                for lam in shapes
                if len(lam) <= beads and table[lam, rho]
            }, (rho, beads)
    for rho in shapes:
        for sigma in shapes:
            dot = sum(table[lam, rho] * table[lam, sigma] for lam in shapes)
            assert dot == (centralizer_order(rho) if rho == sigma else 0), (rho, sigma)
    for lam in shapes:
        assert table[lam, (1,) * w] == standard_tableaux_count(lam)


def test_degree_twenty_kostka_sum_is_fast():
    # budget: 10 seconds; one walk reads all 530 shapes of size 20 at n = 2,
    # and (wedge^2 V)^{tensor 20} gives the Kostka sum K_((5^8),(2^20))
    t0 = time.perf_counter()
    k, got = symfunc._det_multiplicities(2, 20, 40)
    assert time.perf_counter() - t0 < 10.0
    assert k == 8
    # the reference DP (about 50 s) finds 304 nonzero multiplicities among
    # the 530 shapes
    assert len(got) == 304 and all(got.values())
    assert set(got) <= set(partitions_of(20, max_rows=10))
    total = sum(standard_tableaux_count(lam) * m for lam, m in got.items())
    assert total == kostka_number((5,) * 8, (2,) * 20) == 61_023_924_234


def test_windowed_slots_match_brute_force():
    # each table is every vector under the cap in lex order with increasing
    # codes, and a shift maps each vector whose image stays under the cap to
    # the slot of that image
    rng = random.Random(3)
    for _ in range(30):
        N = rng.randint(1, 5)
        cap = rng.randint(0, 4)
        slots = _ReferenceSlots(N, cap)
        window = {}
        for e in product(range(cap + 1), repeat=N):
            window.setdefault(sum(e), []).append(e)
        for d in range(N * cap + 3):
            exps, codes = slots.table(d)
            assert list(map(tuple, exps.tolist())) == window.get(d, []), (N, cap, d)
            assert (np.diff(codes) > 0).all()
            v = np.array([rng.randint(0, 1) for _ in range(N)], dtype=np.int64)
            src, dst = slots.shift(d, v)
            image = window.get(d + int(v.sum()), [])
            want = [
                (j, image.index(t))
                for j, e in enumerate(window.get(d, []))
                for t in [tuple(x + y for x, y in zip(e, v.tolist()))]
                if t in image
            ]
            assert list(zip(src.tolist(), dst.tolist())) == want


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
    # and the full expansion put the two strip maps on opposite sides of the
    # walk
    assert determinant_multiplicity((7, 4, 2, 1, 1), 2, budget=30) == (6, 2)
    assert plethysm_wedge((7, 4, 2, 1, 1), 2, budget=30)[(6,) * 5] == 2


@pytest.mark.parametrize(
    "n, degree, want, kostka, seconds",
    [
        (4, 9, ((7, 2), 4, 5), 62_524, 2.0),
        (5, 11, ((11,), 5, 3), 145_895_784, 30.0),
        (6, 13, ((13,), 6, 451), 3_053_753_591_526, 5.0),
    ],
    ids=["4-9", "5-11", "6-13"],
)
def test_witness_for_n_four_and_five(n, degree, want, kostka, seconds):
    # budget: 2 seconds at n = 4, 30 seconds at n = 5 and 5 seconds at
    # n = 6; the first witness sits in the first degree that admits a
    # determinant power, and (wedge^n V)^{tensor w} gives the Kostka sum
    # K_((N^k),(n^w)) on it
    N = 2 * n + 1
    start = time.perf_counter()
    assert find_witness(n, degree, budget=n * degree) == want
    assert time.perf_counter() - start < seconds
    k, got = symfunc._det_multiplicities(n, degree, n * degree)
    assert k == want[1] and all(got.values())
    assert set(got) <= set(partitions_of(degree))
    total = sum(standard_tableaux_count(lam) * m for lam, m in got.items())
    assert total == kostka == kostka_number((N,) * k, (n,) * degree)


def test_budget_enforcement():
    with pytest.raises(BudgetExceeded):
        plethysm_wedge((5,), 3)  # degree 15 over the default budget 14
    with pytest.raises(BudgetExceeded):
        find_witness(2, 11, budget=10)
    # an explicit budget unlocks the same call
    assert plethysm_wedge((5,), 3, budget=15)
    # a negative budget is bad input, not an over-budget request
    with pytest.raises(ValueError):
        plethysm_wedge((1,), 2, budget=-1)
    with pytest.raises(ValueError):
        find_witness(2, 5, budget=-1)
    # also where no degree up to the bound runs a pass
    with pytest.raises(ValueError):
        find_witness(2, 4, budget=-1)
    with pytest.raises(ValueError):
        determinant_multiplicity((1,), 2, budget=-1)


def test_dimension_gap_values():
    assert dimension_gap(1) == (3, 9, False)
    assert dimension_gap(2) == (45, 25, True)
    assert dimension_gap(3) == (595, 49, True)
