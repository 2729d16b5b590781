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
codes, and `searchsorted` finds the target slots.  One pass yields the
tables of every shape of a degree, which is what the witness search scans.

The coefficient of s_mu is read off a table by Weyl alternation (Macdonald,
Symmetric Functions and Hall Polynomials, I.3): the sum over w in S_N of
sgn(w) times the coefficient of x^(mu + rho - w rho), taken over the
permutations that leave every exponent non-negative.  Every value is an exact
integer; a negative Schur coefficient contradicts Schur positivity and raises.
The full expansion reads every dominant exponent this way, off tables that
keep every exponent vector with entries up to |lambda|.

The determinant power det^k = S^{(k^N)}V can appear in S^lambda(wedge^n V) only
for k = n*|lambda|/N; its multiplicity drives the witness search.  The
alternation is linear, so that multiplicity is one coefficient: the one of
x^beta, beta = (k^N) + rho, in a_rho * s_lambda[e_n], where a_rho is the sum
over w in S_N of sgn(w) x^(w rho).  So the determinant DP starts from a_rho in
place of 1 and reads the single slot beta.  Exponents never decrease along the
DP, and each box still to place adds at most 1 to an entry, and only to the
entries of the variables that some letter still to place contains (the live
ones).  So a table with r boxes left keeps only beta - r*live <= e <= beta:
every other vector never becomes beta, and a finished variable's entry is
pinned to its entry of beta.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod

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
    if budget < 0:
        raise ValueError(f"negative degree budget {budget}")
    if degree > budget:
        raise BudgetExceeded(
            f"plethysm degree n*|lambda| = {degree} exceeds budget {budget}"
        )


class _Slots:
    """Exponent vectors of length N inside a window, one slot table per
    degree, built on first use.

    The window of degree d is floor(d) <= e <= cap entrywise.  `cap` is one
    bound for every entry or one bound per entry; `floor` maps a degree to
    one lower bound per entry, and is 0 when left out.  A vector's code is
    its value in the mixed radix cap_i + 1, so the codes of a table increase
    with lex order and a shift by x^v adds the code of v.  Codes are int64
    while the product of the radices fits, and Python integers beyond that.
    A DP over the slots loses every vector that leaves the window, so the
    window must contain every vector from which one a lookup reads is still
    reachable (`_det_slots` derives one).
    """

    def __init__(self, N, cap, floor=None):
        self.N = N
        self.cap = np.broadcast_to(np.asarray(cap, dtype=np.int64), (N,))
        self.floor = floor
        radix = [int(c) + 1 for c in self.cap]
        dtype = np.int64 if prod(radix) < 2**63 else object
        self.weights = np.array([prod(radix[i + 1 :]) for i in range(N)], dtype=dtype)
        self._tables = {}

    def table(self, d):
        """(exps, codes) of degree d: the vectors as rows in lex order, and
        their codes."""
        got = self._tables.get(d)
        if got is None:
            exps = self._vectors(d)
            got = self._tables[d] = (exps, exps @ self.weights)
        return got

    def inside(self, exps, d, v=0):
        """Mask of the rows e of `exps` with e + v in the window of degree d.
        Comparing e with cap - v needs no (rows, N) sum."""
        ok = exps <= self.cap - v
        if self.floor is not None:
            ok &= exps >= self.floor(d) - v
        return ok.all(axis=1)

    def _vectors(self, d):
        N, hi = self.N, self.cap
        lo = np.zeros(N, dtype=np.int64) if self.floor is None else self.floor(d)
        exps = np.zeros((1, 0), dtype=np.int64)
        left = np.array([d], dtype=np.int64)
        for i in range(N - 1):
            # the entry at i leaves a remainder the later entries can hold
            first = np.maximum(left - hi[i + 1 :].sum(), lo[i])
            last = np.minimum(left - lo[i + 1 :].sum(), hi[i])
            counts = np.maximum(last - first + 1, 0)
            rows = np.repeat(np.arange(len(left)), counts)
            starts = np.cumsum(counts) - counts
            v = first[rows] + np.arange(len(rows)) - starts[rows]
            exps = np.column_stack([exps[rows], v])
            left = left[rows] - v
        keep = (lo[-1] <= left) & (left <= hi[-1])
        return np.column_stack([exps, left])[keep]

    def shift(self, d, v):
        """(src, dst) for multiplying a degree-d table by x^v: slot src[j]
        moves to slot dst[j] of degree d+|v|; vectors pushed out of that
        degree's window are left out.  The shift is injective, so dst has no
        repeats."""
        exps, codes = self.table(d)
        d2 = d + int(v.sum())
        src = np.nonzero(self.inside(exps, d2, v))[0]
        _, tgt = self.table(d2)
        dst = np.searchsorted(tgt, codes[src] + v @ self.weights)
        return src, dst


def _det_slots(n, w):
    """(windows, start) of the det^k lookup on tables of shapes of size w, for
    N = 2n+1 and k = n*w/N.

    The DP starts from start = (|rho|, a_rho): the degree and the table of
    a_rho, rho = (N-1, ..., 1, 0), and the lookup reads the single slot
    beta = (k^N) + rho.  windows[i] is the window of the tables while letter
    i is placed.  A table of size s has r = w - s boxes left, exponents never
    decrease, and each box adds at most 1 to an entry, and only to the entries
    of the variables that letter i or a later one contains (live).  So a vector
    outside beta - r*live <= e <= beta never reaches beta, and the window drops
    it; a finished variable is pinned to its entry of beta.  The letters of one
    live set share one window, and every window has the cap beta, so their
    codes agree.  At size w every window holds beta alone.

    The terms of a_rho are x^(p.rho) with sign sgn(p).  The ones with
    p.rho <= beta are beta minus the terms of the s_(k^N) alternation, with
    the same signs.
    """
    N = 2 * n + 1
    k = n * w // N
    rho = np.arange(N - 1, -1, -1)
    beta, offset = k + rho, int(rho.sum())
    letters = _wedge_letters(n, N)
    live = np.maximum.accumulate(letters[::-1])[::-1]
    windows = []
    for i, row in enumerate(live):
        if not i or (row != live[i - 1]).any():
            window = _Slots(
                N, beta, lambda d, row=row: np.maximum(beta - (w - (d - offset) // n) * row, 0)
            )
        windows.append(window)
    first = windows[0]
    terms, signs = _weyl_terms((k,) * N)
    exps = beta - terms
    ok = first.inside(exps, offset)
    _, codes = first.table(offset)
    start = np.zeros(len(codes), dtype=np.int64)
    start[np.searchsorted(codes, exps[ok] @ first.weights)] = signs[ok]
    return windows, (offset, start)


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


def _count_dtype(M, w, terms=1):
    """dtype of the DP counts for shapes of size at most w over M letters,
    from a start table whose entries have absolute values summing to `terms`.

    From one start vector, a count of shape nu is a number of semistandard
    tableaux of shape nu with one content, at most dim S^nu(C^M) <= M^|nu|.
    Every sum the DP forms, signed or not, runs over distinct pairs of a start
    vector and a tableau, so it is at most terms * M^|nu| in absolute value.
    So int64 holds every count while terms * M^w < 2^63, and Python integers
    are used beyond that.
    """
    return np.int64 if terms * M**w < 2**63 else object


def _tableau_tables(letters, slots, bound, w, start=None):
    """Exponent tables of s_nu over the letters, for every shape nu of size w
    inside `bound` with at most len(letters) rows, from one DP over the
    letters.

    `slots` is the window of every table, or a list of one window per letter:
    the window of the tables while that letter is placed.  Where the window
    changes, every table is restricted to the next one, which must lie inside
    it with the same codes.  `start` is (degree, table) of the empty shape,
    and the constant 1 when left out.

    A shape is kept only while the letters left can still add the horizontal
    strips that complete it to size w inside `bound`, and while its table is
    not all zero; a dropped shape of size w gets a zero table.  Each letter
    updates the shapes in place, largest first: every source of a shape is
    strictly smaller, so it still holds its value from before the letter.
    The sources of one strip size share a shift map, so their moved entries
    are summed and added once.  The shapes come out in the order the DP
    first reaches them: by rows, then in the order of `_shapes`.
    """
    windows = slots if isinstance(slots, list) else [slots] * len(letters)
    offset, first = (0, np.ones(1, dtype=np.int64)) if start is None else start
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
    dtype = _count_dtype(len(letters), w, int(np.abs(first).sum()))
    state = {(): first.astype(dtype)}
    for i, letter in enumerate(letters):
        window = windows[i]
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
                    v = letter * (size - msize)
                    m = maps[key] = window.shift(offset + msize * deg, v)
                src, dst = m
                if not len(src):
                    continue
                if tgt is None:
                    _, codes = window.table(offset + size * deg)
                    tgt = state[nu] = np.zeros(len(codes), dtype=dtype)
                moved = arrs[0][src]
                for arr in arrs[1:]:
                    moved += arr[src]
                tgt[dst] += moved
        state = {mu: arr for mu, arr in state.items() if need[mu] <= rem}
        if rem and windows[i + 1] is not window:
            state = _restrict(state, window, windows[i + 1], offset, deg)
        state = {mu: arr for mu, arr in state.items() if arr.any()}
    _, codes = windows[-1].table(offset + w * deg)
    full = [nu for nu in order if sum(nu) == w and len(nu) <= len(letters)]
    return {
        nu: state[nu] if nu in state else np.zeros(len(codes), dtype=dtype)
        for nu in sorted(full, key=len)
    }


def _restrict(state, old, new, offset, deg):
    """The tables of `state` restricted from the window `old` to the window
    `new` inside it: one `searchsorted` on codes per degree."""
    picks = {}
    out = {}
    for mu, arr in state.items():
        d = offset + sum(mu) * deg
        if d not in picks:
            picks[d] = np.searchsorted(old.table(d)[1], new.table(d)[1])
        out[mu] = arr[picks[d]]
    return out


def _weyl_terms(mu):
    """(betas, signs): the exponent vectors mu + rho - p.rho, rho = (N-1, ..., 0),
    and sgn p, for the permutations p of range(N), N = len(mu), that leave
    every entry non-negative.

    Only permutations with p(i) >= i - mu_i keep the entry mu_i - i + p(i)
    non-negative.  Those allowed sets shrink as i grows, so rows are filled
    from the last one.
    """
    N = len(mu)
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
    return np.array(mu) - np.arange(N) + perms, signs


def _alternation(slots, mu):
    """(idx, signs) such that the coefficient of s_mu in a table `arr` is
    sum(signs * arr[idx]).

    Exponent vectors outside the window of the slots are left out: the
    window is chosen so that their coefficients are zero.
    """
    mu = tuple(mu) + (0,) * (slots.N - len(mu))
    betas, signs = _weyl_terms(mu)
    ok = slots.inside(betas, sum(mu))
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
    slots = _Slots(N, sum(lam))
    # no table when lam has more rows than e_n has monomials
    arr = _tableau_tables(_wedge_letters(n, N), slots, lam, sum(lam)).get(lam)
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


def _det_multiplicities(n, w, bound, budget):
    """(k, {lam: multiplicity of det^k in S^lam(wedge^n V)}) for the shapes lam
    of size w inside `bound`, dim V = N = 2n+1, each read off the one slot
    beta of its table from one DP pass over the windows of `_det_slots`;
    (None, {}) unless N divides n*w."""
    N = 2 * n + 1
    k, r = divmod(n * w, N)
    # a bad budget is refused even where no pass runs
    _check_budget(0 if r else n * w, N, budget)
    if r:
        return None, {}
    windows, start = _det_slots(n, w)
    tables = _tableau_tables(_wedge_letters(n, N), windows, bound, w, start)
    return k, {lam: int(arr[0]) for lam, arr in tables.items()}


def determinant_multiplicity(lam, n: int, budget: int | None = None):
    """(k, multiplicity) of the determinant power det^k inside S^lam(wedge^n V).

    dim V = N = 2n+1.  Degree forces k = n*|lam|/N; when the division fails the
    multiplicity is 0 and k is None.  A lam with more rows than e_n has
    monomials has no table, and multiplicity 0.
    """
    lam = check_partition(lam)
    if n < 1:
        raise ValueError("need n >= 1")
    k, mults = _det_multiplicities(n, sum(lam), lam, budget)
    return k, mults.get(lam, 0)


def find_witness(n: int, degree_bound: int, budget: int | None = None):
    """First lambda (graded lex, |lambda| <= degree_bound) whose plethysm
    s_lambda[e_n] contains a determinant power with multiplicity >= 2.

    Returns (lambda, k, multiplicity) or None when the bound is exhausted.
    Budget errors propagate.  One DP pass per degree reads all its lambdas.
    """
    if n < 2:
        raise ValueError("witness search needs n >= 2")
    M = comb(2 * n + 1, n)
    for w in range(1, degree_bound + 1):
        k, mults = _det_multiplicities(n, w, (w,) * min(w, M), budget)
        if k is None:
            continue  # no determinant power can occur in this degree
        # graded lex is the order of partitions_of, not that of the dict
        for lam in partitions_of(w, max_rows=M):
            if mults[lam] >= 2:
                return lam, k, mults[lam]
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
