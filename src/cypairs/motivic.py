"""Classes of cellular varieties in the Grothendieck ring, as polynomials in
the Lefschetz class L, and the certificate that the two zero loci cut from
the flag roof are L-equivalent.

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


class LPoly:
    """Polynomial in L with integer coefficients, stored sparsely."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        if isinstance(coeffs, int):
            coeffs = {0: coeffs}
        self.c = {e: v for e, v in dict(coeffs).items() if v}
        if any(e < 0 for e in self.c):
            raise ValueError("negative powers of L")

    @classmethod
    def affine_space(cls, k: int) -> "LPoly":
        return cls({k: 1})

    @classmethod
    def projective_space(cls, d: int) -> "LPoly":
        return cls({e: 1 for e in range(d + 1)})

    def __add__(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return LPoly(out)

    def __neg__(self):
        return LPoly({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LPoly(other)
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
        return LPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LPoly":
        """Multiply by L^k."""
        return LPoly({e + k: v for e, v in self.c.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LPoly(other)
        return isinstance(other, LPoly) and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def __call__(self, x: int) -> int:
        return sum(v * x**e for e, v in self.c.items())

    def coefficient(self, e: int) -> int:
        return self.c.get(e, 0)

    @property
    def degree(self) -> int:
        return max(self.c, default=0)

    def coefficients(self) -> list:
        """Dense list of coefficients from degree 0 upward."""
        return [self.c.get(e, 0) for e in range(self.degree + 1)]

    def is_palindromic(self) -> bool:
        co = self.coefficients()
        return co == co[::-1]

    def __repr__(self):
        if not self.c:
            return "LPoly(0)"
        terms = [
            f"{v}*L^{e}" if e else str(v) for e, v in sorted(self.c.items())
        ]
        return "LPoly(" + " + ".join(terms) + ")"


def _gauss(N: int, k: int) -> list:
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


def gaussian_binomial(N: int, k: int) -> LPoly:
    """The class of G(k, N): [N k] = prod_{i=1..k} (1 - L^{N-k+i}) / (1 - L^i),
    each division by 1 - L^i an exact stride-i prefix sum (top i terms zero)."""
    return LPoly(dict(enumerate(_gauss(N, k))))


def _times_projective(p: LPoly, n: int) -> LPoly:
    """p [P^n], [P^n] = 1 + L + ... + L^n: coefficient j is the sum of the
    n+1 coefficients of p ending at j, a window of one prefix sum."""
    c = p.coefficients()
    s = [0, *accumulate(c)]
    m = len(c)
    return LPoly({j: s[min(j + 1, m)] - s[max(j - n, 0)] for j in range(m + n)})


def class_flag(n: int) -> LPoly:
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
    euler = flag(1)
    checks = {
        "sides_equal": sides_equal,
        "flag_consistent": flag_consistent,
        "flag_dimension": flag.degree == n * n + 2 * n,
        "flag_euler": euler == comb(2 * n + 1, n) * (n + 1),
        "flag_palindromic": flag.is_palindromic(),
    }
    return {
        "n": n,
        "r": r,
        "grassmannian_class": minus.coefficients(),
        "flag_class": flag.coefficients(),
        "multiplier_exponent": r - 1,
        "checks": checks,
        "ok": all(checks.values()),
    }
