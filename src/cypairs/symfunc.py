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
tables of every shape of a degree.

The coefficient of s_mu is read off a table by Weyl alternation (Macdonald,
Symmetric Functions and Hall Polynomials, I.3): the sum over w in S_N of
sgn(w) times the coefficient of x^(mu + rho - w rho), taken over the
permutations that leave every exponent non-negative.  Every value is an exact
integer; a negative Schur coefficient contradicts Schur positivity and raises.
The full expansion reads every dominant exponent this way, off tables that
keep every exponent vector with entries up to |lambda|.

The determinant power det^k = S^{(k^N)}V can appear in S^lambda(wedge^n V) only
for k = n*|lambda|/N; its multiplicity drives the witness search.  It is read
by the characteristic map (Macdonald I.7), for every lambda of one degree at
once: s_lambda is the sum over rho of chi^lambda(rho) p_rho / z_rho, so the
multiplicity is the sum over rho of chi^lambda(rho) <p_rho[e_n], s_(k^N)> / z_rho.
Every character comes from the Murnaghan-Nakayama rule: border strips moved on
beta-sets held as bitmasks.  s_(k^N) has N rows, so its coefficient is the same
in N variables as in infinitely many.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod

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
    """Exponent vectors of length N with every entry at most `cap`, one slot
    table per degree, built on first use.

    A vector's code is its value in base cap + 1, so the codes of a table
    increase with lex order and a shift by x^v adds the code of v.  Codes are
    int64 while (cap + 1)^N fits, and Python integers beyond that.  A DP over
    the slots loses every vector that leaves the cap, so the cap must hold
    every entry of every vector that a lookup reads.
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
            # the entry at i leaves a remainder the later entries can hold
            first = np.maximum(left - (N - 1 - i) * cap, 0)
            counts = np.maximum(np.minimum(left, cap) - first + 1, 0)
            rows = np.repeat(np.arange(len(left)), counts)
            starts = np.cumsum(counts) - counts
            v = first[rows] + np.arange(len(rows)) - starts[rows]
            exps = np.column_stack([exps[rows], v])
            left = left[rows] - v
        return np.column_stack([exps, left])[left <= cap]

    def shift(self, d, v):
        """(src, dst) for multiplying a degree-d table by x^v: slot src[j]
        moves to slot dst[j] of degree d+|v|; vectors pushed over the cap are
        left out.  The shift is injective, so dst has no repeats."""
        exps, codes = self.table(d)
        # comparing e with cap - v needs no (rows, N) sum
        src = np.nonzero((exps <= self.cap - v).all(axis=1))[0]
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


def _alternation(slots, mu):
    """(idx, signs) such that the coefficient of s_mu in a table `arr` is
    sum(signs * arr[idx]).

    The terms are x^(mu + rho - p.rho), rho = (N-1, ..., 0), with sign sgn p,
    over the permutations p of range(N) that leave every entry non-negative.
    Only permutations with p(i) >= i - mu_i keep the entry mu_i - i + p(i)
    non-negative.  Those allowed sets shrink as i grows, so rows are filled
    from the last one.  Exponent vectors over the cap of the slots are left
    out: the cap is chosen so that their coefficients are zero.
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
        idx, signs = _alternation(slots, e)
        c = sum((arr[idx] * signs).tolist())
        if c < 0:
            raise AssertionError(f"negative Schur coefficient {c} at {e}")
        if c:
            out[tuple(x for x in e if x)] = c
    return out


def _border_strips(beads, m, grow):
    """(beads', sign) for every border strip of m boxes added to (grow) or
    removed from the shape whose beta-set is the bitmask `beads`.

    A shape with at most L rows has the beta-set {lam_i + L - i}.  A strip
    moves one bead m places to an empty position, with sign -1 to the number
    of beads it jumps: the Murnaghan-Nakayama rule (Macdonald I.3 and I.7).
    Strips keep the number of beads, so adding them never gives a shape with
    more than L rows.
    """
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


def _z(parts):
    """z_rho: the order of the centralizer of a permutation of cycle type rho."""
    return prod(i**m * factorial(m) for i, m in Counter(parts).items())


def _det_multiplicities(n, w, budget):
    """(k, {lam: multiplicity of det^k in S^lam(wedge^n V)}) for every lam of
    size w with at most binomial(N, n) rows, dim V = N = 2n+1; (None, {})
    unless N divides n*w.

    By the characteristic map, mult(lam) is the sum over rho |- w of
    chi^lam(rho) psi(rho) / z_rho, where psi(rho) = <p_rho[e_n], s_(k^N)> and
    p_m[e_n] = sum over sigma |- n of eps_sigma p_(m sigma) / z_sigma.  One walk
    over the rho, parts non-increasing, shares their prefixes.  Going down a
    prefix pi, it removes strips of sizes m*sigma from (k^N), which gives
    n!^len(pi) p_pi[e_n]^perp s_(k^N); a prefix with nothing left is cut, since
    psi = 0 on every rho it starts.  Coming back up, it adds the parts after pi
    as strips to the empty shape, which gives the sum over the rho that start
    with pi of their weight times p_(rho minus pi), in the Schur basis.  That
    side keeps min(w, binomial(N, n)) beads, which drops every shape with more
    rows: a strip never removes a row, and s_lam[e_n] = 0 in N variables once
    lam has more rows than e_n has monomials.  Every weight is scaled by
    w! n!^w, so the sums are exact integers, and the division at the end must
    leave no remainder.
    """
    N = 2 * n + 1
    k, r = divmod(n * w, N)
    # a bad budget is refused even where no walk runs
    _check_budget(0 if r else n * w, N, budget)
    if r:
        return None, {}
    rows = min(w, comb(N, n))
    unit = factorial(n)
    # n! p_m[e_n] = sum over sigma of eps_sigma (n! / z_sigma) p_(m sigma)
    wedge = [((-1) ** (n - len(s)) * unit // _z(s), s) for s in partitions_of(n)]
    strips = lru_cache(maxsize=None)(_border_strips)

    def spread(out, terms, images, *args):
        # adds to out the image of terms under the linear map that sends each
        # shape b to images(b, *args)
        for b, x in terms.items():
            for b2, y in images(b, *args):
                out[b2] = out.get(b2, 0) + x * y
        return out

    @lru_cache(maxsize=None)
    def adjoint(beads, m):
        # n! p_m[e_n]^perp of one shape
        got = Counter()
        for c, sigma in wedge:
            terms = {beads: c}
            for part in sigma:
                terms = spread({}, terms, strips, m * part, False)
            got.update(terms)
        return [(b, x) for b, x in got.items() if x]

    def walk(prefix, left, down):
        if not left:
            # down holds n!^len(prefix) psi(prefix), on the empty shape
            (psi,) = down.values()
            weight = psi * unit ** (w - len(prefix)) * (factorial(w) // _z(prefix))
            return {(1 << rows) - 1: weight}
        out = {}
        for m in range(min(left, prefix[-1] if prefix else left), 0, -1):
            down2 = {b: x for b, x in spread({}, down, adjoint, m).items() if x}
            if down2:
                spread(out, walk(prefix + (m,), left - m, down2), strips, m, True)
        return out

    total = walk((), w, {(1 << N) - 1 << k: 1})
    denominator = factorial(w) * unit**w
    out = {}
    for lam in partitions_of(w, max_rows=rows):
        padded = lam + (0,) * (rows - len(lam))
        beads = sum(1 << x + rows - 1 - i for i, x in enumerate(padded))
        mult, rest = divmod(total.get(beads, 0), denominator)
        if rest or mult < 0:
            raise AssertionError(f"multiplicity {mult} + {rest}/{denominator} at {lam}")
        out[lam] = mult
    return k, out


def determinant_multiplicity(lam, n: int, budget: int | None = None):
    """(k, multiplicity) of the determinant power det^k inside S^lam(wedge^n V).

    dim V = N = 2n+1.  Degree forces k = n*|lam|/N; when the division fails the
    multiplicity is 0 and k is None.  S^lam(wedge^n V) = 0, and the
    multiplicity is 0, when lam has more rows than e_n has monomials.  Reads
    lam off every multiplicity of its degree.
    """
    lam = check_partition(lam)
    if n < 1:
        raise ValueError("need n >= 1")
    k, mults = _det_multiplicities(n, sum(lam), budget)
    return k, mults.get(lam, 0)


def find_witness(n: int, degree_bound: int, budget: int | None = None):
    """First lambda (graded lex, |lambda| <= degree_bound) whose plethysm
    s_lambda[e_n] contains a determinant power with multiplicity >= 2.

    Returns (lambda, k, multiplicity) or None when the bound is exhausted.
    Budget errors propagate.  One characteristic-map walk per degree reads
    all its lambdas.
    """
    if n < 2:
        raise ValueError("witness search needs n >= 2")
    M = comb(2 * n + 1, n)
    for w in range(1, degree_bound + 1):
        k, mults = _det_multiplicities(n, w, budget)
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
