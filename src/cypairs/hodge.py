"""Middle cohomology of the zero-locus pair through the ambient divisor.

The middle cohomology of the (1,1)-divisor M decomposes over either side as
the middle cohomology of the zero locus Y plus Grassmannian summands in
degrees d-r+2, d-r+4, ..., d+r-2 (d the Grassmannian dimension, r = n+1).
A Grassmannian has cohomology only in even degrees, so whenever those
degrees are all odd the summands vanish and the two zero loci inherit
isometric middle cohomology from M.  The degrees are odd exactly when
dim Y = n^2 - 1 is odd, i.e. when n is even; the claim table states the
condition for odd n, which the computation overrules.
"""

from __future__ import annotations

from .motivic import gaussian_binomial


def poincare_grassmannian(n: int, N: int) -> dict:
    """Betti numbers {degree: rank} of G(n, N); odd degrees are absent."""
    if not 0 <= n <= N:
        raise ValueError(f"G({n}, {N}) is empty")
    return {2 * j: b for j, b in enumerate(gaussian_binomial(N, n))}


def middle_decomposition(n: int) -> dict:
    """Grassmannian summands inside the middle cohomology of the divisor.

    Returns each summand degree with its Betti rank, whether they all
    vanish (forcing the isometry between the two zero loci), and the parity
    bookkeeping: the vanishing happens exactly for even n, while the claim
    is worded for odd n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = n * (n + 1)
    r = n + 1
    betti = poincare_grassmannian(n, 2 * n + 1)
    summands = [
        {"degree": deg, "rank": betti.get(deg, 0)}
        for deg in range(d - r + 2, d + r - 1, 2)
    ]
    all_vanish = all(s["rank"] == 0 for s in summands)
    return {
        "n": n,
        "ambient_dimension": d,
        "middle_degree": n * n - 1,
        "summands": summands,
        "all_vanish": all_vanish,
        "isometry_forced": all_vanish,
        "stated_parity": "odd",
        "computed_parity": "even",
        "parity_discrepancy": True,
        "parity_matches_n": all_vanish == (n % 2 == 0),
    }
