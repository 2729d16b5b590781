"""Finite-variable symmetric polynomials: the plethysm s_lambda[e_n] and the
determinant-multiplicity witness search.

The character of S^lambda(wedge^n V) for dim V = N is the plethysm s_lambda[e_n]
evaluated in N variables.  It is computed by expanding s_lambda over the
binomial(N, n) squarefree monomials of e_n, treated as formal letters in a fixed
lexicographic order.  A semistandard tableau DP adds the letters one at a time,
each as a horizontal strip; its state is the tableau shape, and each shape
holds the exponent-vector distribution of its partial polynomial as a numpy
array over a slot table: the exponent vectors of one degree, in lex order,
with strictly increasing integer codes.  The counts are int64 when no count
can reach 2^63, and Python integers otherwise.  Multiplying by a letter shifts
codes, and `searchsorted` finds the target slots.  Exponents never decrease
along the DP, so a vector with an entry above a cap that no later lookup can
use is dropped.  One pass yields the tables of every shape of a degree, which
is what the witness search scans.

The coefficient of s_mu is read off a table by Weyl alternation (Macdonald,
Symmetric Functions and Hall Polynomials, I.3): the sum over w in S_N of
sgn(w) times the coefficient of x^(mu + rho - w rho), taken over the
permutations that leave every exponent non-negative.  Every value is an exact
integer; a negative Schur coefficient contradicts Schur positivity and raises.

The determinant power det^k = S^{(k^N)}V can appear in S^lambda(wedge^n V) only
for k = n*|lambda|/N; its multiplicity drives the witness search.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np

from .partitions import check_partition, partitions_of


class BudgetExceeded(Exception):
    """Requested plethysm is over the configured degree budget."""


def default_budget(N: int) -> int:
    """Default cap on the x-degree n*|lambda| of a plethysm computation."""
    return 20 if N <= 5 else 14


def _check_budget(degree, N, budget):
    if budget is None:
        budget = default_budget(N)
    if degree > budget:
        raise BudgetExceeded(
            f"plethysm degree n*|lambda| = {degree} exceeds budget {budget}"
        )


class _Slots:
    """Exponent vectors of length N with every entry at most `cap`, one slot
    table per degree, built on first use.

    A vector's code is its value in base cap+1, so the codes of a table
    increase with lex order and a shift by x^v adds the code of v.  Codes are
    int64 while base^N fits, and Python integers beyond that.
    """

    def __init__(self, N, cap):
        self.N = N
        self.cap = cap
        base = cap + 1
        dtype = np.int64 if base**N < 2**63 else object
        self.weights = np.array([base ** (N - 1 - i) for i in range(N)], dtype=dtype)
        self._tables = {}

    def table(self, d):
        """(exps, codes) of degree d: the vectors as rows in lex order, and
        their codes."""
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
            # the entry at i leaves a remainder the N-1-i later entries can hold
            lo = np.maximum(left - (N - 1 - i) * cap, 0)
            counts = np.maximum(np.minimum(left, cap) - lo + 1, 0)
            rows = np.repeat(np.arange(len(left)), counts)
            starts = np.cumsum(counts) - counts
            v = lo[rows] + np.arange(len(rows)) - starts[rows]
            exps = np.column_stack([exps[rows], v])
            left = left[rows] - v
        return np.column_stack([exps, left])[left <= cap]

    def shift(self, d, v):
        """(src, dst) for multiplying a degree-d table by x^v: slot src[j]
        moves to slot dst[j] of degree d+|v|; vectors pushed over the cap are
        left out.  The shift is injective, so dst has no repeats."""
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

    A count of shape nu is a number of semistandard tableaux of shape nu
    with one content, at most dim S^nu(C^M) <= M^|nu|.  So int64 holds every
    count while M^w < 2^63, and Python integers are used beyond that.
    """
    return np.int64 if M**w < 2**63 else object


def _tableau_tables(letters, slots, bound, w):
    """Exponent tables of s_nu over the letters, for every shape nu of size w
    inside `bound`, from one DP over the letters.

    A shape is kept only while the letters left can still add the horizontal
    strips that complete it to size w inside `bound`.  Each letter updates
    the shapes in place, largest first: every source of a shape is strictly
    smaller, so it still holds its value from before the letter.
    """
    deg = int(letters[0].sum())
    order = _shapes(bound, w)
    sources = {nu: [(mu, sum(mu)) for mu in _strip_sources(nu)] for nu in order}
    # fewest letters (horizontal strips) that complete each shape
    need = {nu: 0 if sum(nu) == w else len(letters) + 1 for nu in order}
    for nu in order:
        for mu, _ in sources[nu]:
            need[mu] = min(need[mu], need[nu] + 1)
    dtype = _count_dtype(len(letters), w)
    state = {(): np.ones(1, dtype=dtype)}
    for i, letter in enumerate(letters):
        rem = len(letters) - 1 - i
        maps = {}
        for nu in order:
            if need[nu] > rem:
                continue
            size = sum(nu)
            tgt = state.get(nu)
            for mu, msize in sources[nu]:
                arr = state.get(mu)
                if arr is None:
                    continue
                key = (msize, size - msize)
                m = maps.get(key)
                if m is None:
                    m = maps[key] = slots.shift(msize * deg, letter * (size - msize))
                if tgt is None:
                    _, codes = slots.table(size * deg)
                    tgt = state[nu] = np.zeros(len(codes), dtype=dtype)
                src, dst = m
                tgt[dst] += arr[src]
        state = {mu: arr for mu, arr in state.items() if need[mu] <= rem}
    return {nu: arr for nu, arr in state.items() if sum(nu) == w}


def _wedge_table(lam, n, N, cap):
    """(slots, table) of s_lam[e_n] in N variables with entries up to cap;
    the table is None when lam has more rows than e_n has monomials."""
    slots = _Slots(N, cap)
    tables = _tableau_tables(_wedge_letters(n, N), slots, lam, sum(lam))
    return slots, tables.get(lam)


def _alternation(slots, mu):
    """(idx, signs) such that the coefficient of s_mu in a table `arr` is
    sum(signs * arr[idx]).

    Only permutations p with p(i) >= i - mu_i keep the exponent
    mu_i - i + p(i) of mu + rho - p.rho non-negative.  Those allowed sets
    shrink as i grows, so rows are filled from the last one.  Exponent
    vectors over the cap are left out: the cap is chosen so that their
    coefficients are zero or never needed.
    """
    N = slots.N
    mu = tuple(mu) + (0,) * (N - len(mu))
    perms = np.zeros((1, 0), dtype=np.int64)
    signs = np.ones(1, dtype=np.int64)
    for i in range(N - 1, -1, -1):
        free = np.ones((len(perms), N), dtype=bool)
        free[np.arange(len(perms))[:, None], perms] = False
        free[:, : max(0, i - mu[i])] = False
        rows, vals = np.nonzero(free)
        inversions = (perms[rows] < vals[:, None]).sum(axis=1)
        signs = signs[rows] * (1 - 2 * (inversions % 2))
        perms = np.column_stack([vals, perms[rows]])
    betas = np.array(mu) - np.arange(N) + perms
    ok = (betas <= slots.cap).all(axis=1)
    idx = np.searchsorted(slots.table(sum(mu))[1], betas[ok] @ slots.weights)
    return idx, signs[ok]


def _coefficient(arr, alternation):
    idx, signs = alternation
    return sum((arr[idx] * signs).tolist())


def plethysm_wedge(lam, n: int, N: int | None = None, budget: int | None = None):
    """Schur expansion of s_lam[e_n] in N variables (default N = 2n+1).

    Returns {mu: coefficient} with all coefficients positive; mu have at most
    N rows.  Raises BudgetExceeded when n*|lam| is over budget, never silently
    truncates.
    """
    lam = check_partition(lam)
    if N is None:
        N = 2 * n + 1
    if not (1 <= n <= N):
        raise ValueError("need 1 <= n <= N")
    _check_budget(n * sum(lam), N, budget)
    # each box adds at most 1 to an entry, so the cap |lam| drops nothing
    slots, arr = _wedge_table(lam, n, N, sum(lam))
    if arr is None:
        return {}
    exps, _ = slots.table(n * sum(lam))
    # c_mu != 0 needs x^mu in the table, since Kostka numbers are >= 0
    dominant = (arr != 0) & (exps[:, :-1] >= exps[:, 1:]).all(axis=1)
    out = {}
    for e in exps[dominant].tolist():
        c = _coefficient(arr, _alternation(slots, e))
        if c < 0:
            raise AssertionError(f"negative Schur coefficient {c} at {e}")
        if c:
            out[tuple(x for x in e if x)] = c
    return out


def determinant_multiplicity(lam, n: int, budget: int | None = None):
    """(k, multiplicity) of the determinant power det^k inside S^lam(wedge^n V).

    dim V = N = 2n+1.  Degree forces k = n*|lam|/N; when the division fails the
    multiplicity is 0 and k is None.  The multiplicity is one alternation
    lookup in the monomial table of the plethysm.
    """
    lam = check_partition(lam)
    if n < 1:
        raise ValueError("need n >= 1")
    N = 2 * n + 1
    total = n * sum(lam)
    if total % N:
        return None, 0
    k = total // N
    _check_budget(total, N, budget)
    # a lookup of s_(k^N) reads exponents up to k+N-1 only
    slots, arr = _wedge_table(lam, n, N, min(k + N - 1, sum(lam)))
    if arr is None:
        return k, 0
    return k, _coefficient(arr, _alternation(slots, (k,) * N))


def find_witness(n: int, degree_bound: int, budget: int | None = None):
    """First lambda (graded lex, |lambda| <= degree_bound) whose plethysm
    s_lambda[e_n] contains a determinant power with multiplicity >= 2.

    Returns (lambda, k, multiplicity) or None when the bound is exhausted.
    Budget errors propagate.  One DP pass per degree builds the monomial
    tables of every lambda of that degree; each candidate then costs one
    alternation lookup.
    """
    if n < 2:
        raise ValueError("witness search needs n >= 2")
    N = 2 * n + 1
    letters = _wedge_letters(n, N)
    M = len(letters)
    for w in range(1, degree_bound + 1):
        if (n * w) % N:
            continue  # no determinant power can occur in this degree
        k = n * w // N
        _check_budget(n * w, N, budget)
        slots = _Slots(N, min(k + N - 1, w))
        tables = _tableau_tables(letters, slots, (w,) * min(w, M), w)
        alternation = _alternation(slots, (k,) * N)
        for lam in partitions_of(w, max_rows=M):
            m = _coefficient(tables[lam], alternation)
            if m >= 2:
                return lam, k, m
    return None


def dimension_gap(n: int):
    """(flag_dim, group_dim, gap_holds) for the full flag of wedge^n V.

    N = binomial(2n+1, n); the flag variety F(1, 2, ..., N-1) of wedge^n V has
    dimension N(N-1)/2, to be compared with dim GL(V) = (2n+1)^2.  A strict gap
    (group smaller than flag) means the GL(V)-orbit of any flag is a proper
    subvariety.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = comb(2 * n + 1, n)
    flag_dim = N * (N - 1) // 2
    group_dim = (2 * n + 1) ** 2
    return flag_dim, group_dim, group_dim < flag_dim


def schur_expansion_json(expansion, N: int) -> dict:
    """JSON form: {"nvars": N, "terms": [...]} sorted by graded lex on mu."""
    terms = sorted(expansion.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return {
        "nvars": N,
        "terms": [{"mu": list(mu), "coeff": c} for mu, c in terms],
    }
