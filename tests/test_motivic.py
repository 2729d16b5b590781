"""Lefschetz-class polynomials and the L-equivalence certificate."""

import time
from math import comb

import pytest

from cypairs.motivic import LPoly, class_flag, gaussian_binomial, l_equivalence_certificate
from cypairs.partitions import partitions_of


def box_count(j, rows, cols):
    """Partitions of j fitting in a rows x cols box, counted directly."""
    return sum(1 for _ in partitions_of(j, max_part=cols, max_rows=rows))


def test_lpoly_arithmetic():
    one_plus_l = LPoly({0: 1, 1: 1})
    assert one_plus_l * one_plus_l == LPoly({0: 1, 1: 2, 2: 1})
    assert one_plus_l - one_plus_l == LPoly(0)
    assert not (one_plus_l - one_plus_l)
    assert one_plus_l(3) == 4
    assert one_plus_l.shift(2) == LPoly({2: 1, 3: 1})
    assert LPoly.projective_space(2) == LPoly({0: 1, 1: 1, 2: 1})
    assert 2 * LPoly.affine_space(1) == LPoly({1: 2})
    with pytest.raises(ValueError):
        LPoly({-1: 1})


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1).coefficients() == [1, 1]
    assert gaussian_binomial(4, 2).coefficients() == [1, 1, 2, 1, 1]
    assert gaussian_binomial(5, 5) == LPoly(1)
    for N in range(6):
        assert gaussian_binomial(N, -1) == LPoly(0)
        assert gaussian_binomial(N, N + 1) == LPoly(0)


def test_gaussian_binomial_counts_box_partitions():
    for N in range(1, 9):
        for k in range(N + 1):
            g = gaussian_binomial(N, k)
            for j in range(k * (N - k) + 1):
                assert g.coefficient(j) == box_count(j, k, N - k), (N, k, j)


def test_gaussian_binomial_at_one_and_symmetry():
    for N in range(1, 10):
        for k in range(N + 1):
            g = gaussian_binomial(N, k)
            assert g(1) == comb(N, k)
            assert g == gaussian_binomial(N, N - k)
            assert g.is_palindromic()


def test_dual_pascal_recursion():
    """Both Pascal rules and the unit ends pin every [N k] with N < 30 by
    induction on N, independently of the product formula."""
    for N in range(1, 30):
        assert gaussian_binomial(N, 0) == gaussian_binomial(N, N) == LPoly(1)
        for k in range(1, N):
            lhs = gaussian_binomial(N, k)
            left = gaussian_binomial(N - 1, k - 1)
            right = gaussian_binomial(N - 1, k)
            assert lhs == right + left.shift(N - k), (N, k)
            assert lhs == left + right.shift(k), (N, k)


def test_class_flag():
    flag = class_flag(2)
    assert flag.degree == 8
    assert flag(1) == 30  # chi = 10 fibers of chi = 3
    assert flag.is_palindromic()
    assert flag == gaussian_binomial(5, 3) * LPoly.projective_space(2)


def test_certificate_passes():
    for n in range(1, 7):
        cert = l_equivalence_certificate(n)
        assert cert["ok"], cert
        assert cert["multiplier_exponent"] == n
        assert all(cert["checks"].values())


def test_certificate_class_values():
    cert = l_equivalence_certificate(2)
    assert cert["grassmannian_class"] == [1, 1, 2, 2, 2, 1, 1]
    assert sum(cert["flag_class"]) == 30


def test_certificate_at_the_size_bound_is_fast():
    # the products by [P^n] are windows of one prefix sum, not dict products
    start = time.perf_counter()
    cert = l_equivalence_certificate(150)
    assert time.perf_counter() - start < 1.5
    assert cert["ok"]
