"""Classes of cellular varieties in the Grothendieck ring, as coefficient
lists in the Lefschetz class L, and the certificate that the two zero loci
cut from the flag roof are L-equivalent.  A class is a list of ints from
L^0 upward with no trailing zeros; [] is the zero class.

Everything cellular here is a polynomial identity: the Grassmannian class is
the Gaussian binomial in L, the flag roof fibers as a projective bundle over
either Grassmannian, and a general (1,1)-divisor decomposes over each side
into a projective subbundle away from the zero locus.  Subtracting the two
decompositions leaves ([Y_-] - [Y_+]) L^{r-1} = 0 once the cellular parts
cancel; the certificate checks exactly those cancellations.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb


def gaussian_binomial(N: int, k: int) -> list:
    """The class of G(k, N): [N k] = prod_{i=1..k} (1 - L^{N-k+i}) / (1 - L^i),
    each division by 1 - L^i an exact stride-i prefix sum (top i terms zero)."""
    if k < 0 or k > N:
        return []
    c = [1]
    for i in range(1, k + 1):
        a = N - k + i
        c = [x - y for x, y in zip(c + [0] * a, [0] * a + c)]
        for r in range(i):
            c[r::i] = accumulate(c[r::i])
        if any(c[-i:]):
            raise ArithmeticError(f"1 - L^{i} does not divide the product")
        del c[-i:]
    return c


def _times_projective(c: list, n: int) -> list:
    """c [P^n], [P^n] = 1 + L + ... + L^n: coefficient j is the sum of the
    n+1 coefficients of c ending at j, a window of one prefix sum."""
    s = [0, *accumulate(c)]
    m = len(c)
    return [s[min(j + 1, m)] - s[max(j - n, 0)] for j in range(m + n)]


def class_flag(n: int) -> list:
    """Class of the flag roof F(n, n+1; 2n+1): a P^n-bundle over G(n, 2n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _times_projective(gaussian_binomial(2 * n + 1, n), n)


def l_equivalence_certificate(n: int) -> dict:
    """Cellular identities forcing ([Y_-] - [Y_+]) L^n = 0.

    A general (1,1)-divisor M on the roof maps to either Grassmannian side
    as a P^{n-1}-bundle away from the zero locus Y and with full P^n fibers
    over it, so [M] = [P^{n-1}] [Gr] + L^n [Y] on both sides.  Subtracting,
    the difference of the zero-locus classes is annihilated by L^n as soon
    as the two Grassmannian classes agree, which is the Gaussian-binomial
    symmetry [2n+1 n] = [2n+1 n+1].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = n + 1
    minus = gaussian_binomial(2 * n + 1, n)
    plus = gaussian_binomial(2 * n + 1, n + 1)
    flag = _times_projective(minus, n)
    sides_equal = minus == plus
    flag_consistent = flag == _times_projective(plus, n)
    checks = {
        "sides_equal": sides_equal,
        "flag_consistent": flag_consistent,
        "flag_dimension": len(flag) - 1 == n * n + 2 * n,
        "flag_euler": sum(flag) == comb(2 * n + 1, n) * (n + 1),
        "flag_palindromic": flag == flag[::-1],
    }
    return {
        "n": n,
        "r": r,
        "grassmannian_class": minus,
        "flag_class": flag,
        "multiplier_exponent": r - 1,
        "checks": checks,
        "ok": all(checks.values()),
    }
