"""Borel-Weil-Bott cohomology of homogeneous bundles on G(n, 2n+1).

A bundle is S^u(U*) (x) S^q(Q) (x) O(t) with U the rank-n tautological
subbundle and Q the rank-(n+1) quotient; both det U* and wedge^{n+1} Q are
O(1).  Its cohomology is governed by the associated GL(2n+1) epsilon-weight:
add the staircase rho-shift, and either two entries collide (no cohomology at
all) or sorting them is achieved by a unique permutation whose length is the
single cohomological degree.

Two independent implementations of the dominance walk are kept: `bott` sorts
the shifted weight directly, `bott_by_reflections` repeatedly applies a
simple reflection at the leftmost negative fundamental coordinate.  They must
always agree.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import check_partition, trim, weyl_dimension


class Bundle(NamedTuple):
    """S^u(U*) (x) S^q(Q) (x) O(t); u, q are partitions, t an integer."""

    u: tuple = ()
    q: tuple = ()
    t: int = 0


def _as_summands(x) -> dict:
    if isinstance(x, Bundle):
        return {x: 1}
    return dict(x)


class CohomologyGroup(NamedTuple):
    degree: int
    weight: tuple
    dim: int


def canonicalize(b: Bundle, n: int) -> Bundle:
    """Absorb full exterior columns into the twist.

    det U* = O(1) strips any column of height n from u; wedge^{n+1} Q = O(1)
    strips any column of height n+1 from q.  Canonical form: u has at most
    n-1 rows, q at most n rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = check_partition(b.u)
    q = check_partition(b.q)
    t = b.t
    if len(u) > n or len(q) > n + 1:
        raise ValueError(f"partitions too long for G({n}, {2 * n + 1}): {b}")
    if len(u) == n:
        c = u[-1]
        u = trim(tuple(x - c for x in u))
        t += c
    if len(q) == n + 1:
        c = q[-1]
        q = trim(tuple(x - c for x in q))
        t += c
    return Bundle(u, q, t)


def to_weight(b: Bundle, n: int) -> tuple:
    """GL(2n+1) epsilon-weight of the bundle: the q-part on the first n+1
    coordinates, then the u-part reversed, negated, and shifted by the twist."""
    u = check_partition(b.u)
    q = check_partition(b.q)
    if len(u) > n or len(q) > n + 1:
        raise ValueError(f"partitions too long for G({n}, {2 * n + 1}): {b}")
    u = u + (0,) * (n - len(u))
    q = q + (0,) * (n + 1 - len(q))
    return q + tuple(-u[i] - b.t for i in range(n - 1, -1, -1))


def bott(w) -> tuple | None:
    """(degree, dominant weight) for the weight w, or None when cohomology
    vanishes.  Adds the staircase shift (N, ..., 1); a repeated entry kills
    every degree, otherwise the degree is the inversion count of the shifted
    vector and the weight is its sorted form with the shift removed."""
    w = tuple(w)
    N = len(w)
    u = [w[i] + N - i for i in range(N)]
    if len(set(u)) < N:
        return None
    p = sum(1 for i in range(N) for j in range(i + 1, N) if u[i] < u[j])
    u.sort(reverse=True)
    return p, tuple(u[i] - (N - i) for i in range(N))


def simple_reflection(f, i: int) -> tuple:
    """Action of the reflection s_i on fundamental-weight coordinates
    (1-based i): negate f_i and add the old f_i to each neighbor."""
    f = list(f)
    if not 1 <= i <= len(f):
        raise ValueError(f"reflection index {i} out of range")
    c = f[i - 1]
    f[i - 1] = -c
    if i >= 2:
        f[i - 2] += c
    if i < len(f):
        f[i] += c
    return tuple(f)


def bott_by_reflections(w) -> tuple | None:
    """Same contract as `bott`, by walking to the dominant chamber.

    In fundamental coordinates f_i = u_i - u_{i+1} of the shifted weight, a
    zero entry means a wall (no cohomology); otherwise reflect at the leftmost
    negative entry until all are positive, counting the steps.
    """
    w = tuple(w)
    N = len(w)
    u = [w[i] + N - i for i in range(N)]
    f = tuple(u[i] - u[i + 1] for i in range(N - 1))
    p = 0
    while True:
        if 0 in f:
            # the walk reached a wall: two shifted entries collide
            return None
        neg = next((i for i, x in enumerate(f) if x < 0), None)
        if neg is None:
            break
        f = simple_reflection(f, neg + 1)
        p += 1
    # rebuild epsilon coordinates from the differences; the entry sum is
    # preserved because the walk permutes the shifted entries
    suffix = [0] * N
    for i in range(N - 2, -1, -1):
        suffix[i] = suffix[i + 1] + f[i]
    total = sum(u)
    last, r = divmod(total - sum(suffix), N)
    assert r == 0
    return p, tuple(last + suffix[i] - (N - i) for i in range(N))


def cohomology(b: Bundle, n: int) -> CohomologyGroup | None:
    """The single nonvanishing cohomology group of the bundle on G(n, 2n+1),
    or None.  The dimension comes from the Weyl dimension formula for the
    dominant weight that the Bott walk produces."""
    res = bott(to_weight(b, n))
    if res is None:
        return None
    p, dom = res
    return CohomologyGroup(p, dom, weyl_dimension(dom))


def serre_dual(b: Bundle, n: int) -> Bundle:
    """The bundle b* (x) O(-2n-1), canonicalized.

    Dualizing S^lam(E) reverses and negates lam; rewriting over U* and Q costs
    det factors, each of which is a twist by O(1).  Serre duality pairs the
    degree-p cohomology of b with degree n(n+1) - p of the result, with equal
    dimensions.
    """
    b = canonicalize(b, n)
    u = b.u + (0,) * (n - len(b.u))
    q = b.q + (0,) * (n + 1 - len(b.q))
    du = trim(tuple(u[0] - u[i] for i in range(n - 1, -1, -1)))
    dq = trim(tuple(q[0] - q[i] for i in range(n, -1, -1)))
    dt = -b.t - u[0] - q[0] - (2 * n + 1)
    return canonicalize(Bundle(du, dq, dt), n)
