"""Finite-variable symmetric polynomials: the plethysm s_lambda[e_n] and the
determinant-multiplicity witness search.

The character of S^lambda(wedge^n V) for dim V = N is the plethysm s_lambda[e_n]
in N variables.  p_rho[e_n] is the product of the p_m[e_n] over the parts m
of rho, so by the characteristic map the coefficient of s_mu in s_lambda[e_n]
is

    sum over rho of chi^lambda(rho) <p_rho[e_n], s_mu> / z_rho,

which `partitions._walk` reads for every shape at once.  It takes shapes
and returns the nonzero Schur coefficients; the beta-sets it moves beads
on stay inside `partitions`.  There p_m[e_n] moves n distinct beads m
places at once, with the product of their strip signs: under Littlewood's
m-quotient it is e_n on the m runners together, the vertical case of the
ribbon Pieri rule (Lascoux, Leclerc and Thibon, J. Math. Phys. 38
(1997)).  The two callers differ only in which side moves n beads:

- `plethysm_wedge` removes plain strips from lambda and adds p_m[e_n] on
  at most N rows, which gives the Schur expansion of s_lambda[e_n] in N
  variables.
- `_det_multiplicities` removes p_m[e_n] from (k^N) and adds plain strips,
  which gives the multiplicity of det^k = s_(k^N) in s_lambda[e_n] for every
  lambda of one degree.  s_(k^N) has N rows, so that coefficient is the same
  in N variables as in infinitely many.

At n = 1, e_1 = p_1 and s_lambda[e_1] = s_lambda, which `plethysm_wedge`
returns without a walk.
"""

from __future__ import annotations

from math import comb

from .partitions import _walk, check_partition


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


def plethysm_wedge(lam, n: int, N: int | None = None, budget: int | None = None):
    """Schur expansion of s_lam[e_n] in N variables (default N = 2n+1).

    Returns {mu: coefficient} with all coefficients positive; mu have at most
    N rows, since s_mu = 0 in N variables past them.  Raises BudgetExceeded
    when n*|lam| is over budget, never silently truncates.
    """
    lam = check_partition(lam)
    if N is None:
        N = 2 * n + 1
    if not (1 <= n <= N):
        raise ValueError("need 1 <= n <= N")
    w = sum(lam)
    _check_budget(n * w, N, budget)
    if lam and len(lam) > comb(N, n):  # S^lam(C^comb(N, n)) = 0; lam = () skips comb
        return {}
    if n == 1:  # e_1 = p_1, so s_lam[e_1] = s_lam
        return {lam: 1}
    return _walk(lam, (), N, up=n)


def _det_multiplicities(n, w, budget):
    """(k, {lam: multiplicity of det^k in S^lam(wedge^n V)}) for every lam of
    size w whose multiplicity is nonzero, in graded lex order, dim V = N =
    2n+1; (None, {}) unless N divides n*w.

    The walk removes p_m[e_n] from (k^N) and adds plain strips to the
    empty shape, on binomial(N, n) rows: s_lam[e_n] = 0 in N variables
    once lam has more rows than e_n has monomials.
    """
    N = 2 * n + 1
    k, r = divmod(n * w, N)
    # a bad budget is refused even where no walk runs
    _check_budget(0 if r else n * w, N, budget)
    if r:
        return None, {}
    return k, _walk((k,) * N, (), comb(N, n), down=n)


def determinant_multiplicity(lam, n: int, budget: int | None = None):
    """(k, multiplicity) of the determinant power det^k inside S^lam(wedge^n V).

    dim V = N = 2n+1.  Degree forces k = n*|lam|/N; when the division fails the
    multiplicity is 0 and k is None.  S^lam(wedge^n V) = 0, and the
    multiplicity is 0, when lam has more rows than e_n has monomials.  Reads
    lam off the nonzero multiplicities of its degree, 0 where it is absent.
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
    for w in range(1, degree_bound + 1):
        k, mults = _det_multiplicities(n, w, budget)
        if k is None:
            continue  # no determinant power can occur in this degree
        for lam, mult in mults.items():
            if mult >= 2:
                return lam, k, mult
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
