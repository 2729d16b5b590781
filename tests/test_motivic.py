"""Classes in L as coefficient lists and the L-equivalence certificate."""

import time
from itertools import zip_longest
from math import comb

from cypairs.motivic import class_flag, gaussian_binomial, l_equivalence_certificate
from cypairs.partitions import partitions_of


def add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def shift(a, k):
    return [0] * k + a


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def box_count(j, rows, cols):
    """Partitions of j fitting in a rows x cols box, counted directly."""
    return sum(1 for _ in partitions_of(j, max_part=cols, max_rows=rows))


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1) == [1, 1]
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert gaussian_binomial(5, 5) == [1]
    for N in range(6):
        assert gaussian_binomial(N, -1) == []
        assert gaussian_binomial(N, N + 1) == []


def test_gaussian_binomial_counts_box_partitions():
    for N in range(1, 9):
        for k in range(N + 1):
            g = gaussian_binomial(N, k)
            for j in range(k * (N - k) + 1):
                assert g[j] == box_count(j, k, N - k), (N, k, j)


def test_gaussian_binomial_at_one_and_symmetry():
    for N in range(1, 10):
        for k in range(N + 1):
            g = gaussian_binomial(N, k)
            assert sum(g) == comb(N, k)
            assert g == gaussian_binomial(N, N - k)
            assert g == g[::-1]


def test_dual_pascal_recursion():
    """Both Pascal rules and the unit ends pin every [N k] with N < 30 by
    induction on N, independently of the product formula."""
    for N in range(1, 30):
        assert gaussian_binomial(N, 0) == gaussian_binomial(N, N) == [1]
        for k in range(1, N):
            lhs = gaussian_binomial(N, k)
            left = gaussian_binomial(N - 1, k - 1)
            right = gaussian_binomial(N - 1, k)
            assert lhs == add(right, shift(left, N - k)), (N, k)
            assert lhs == add(left, shift(right, k)), (N, k)


def test_class_flag():
    flag = class_flag(2)
    assert len(flag) - 1 == 8
    assert sum(flag) == 30  # chi = 10 fibers of chi = 3
    assert flag == flag[::-1]
    assert flag == convolve(gaussian_binomial(5, 3), [1, 1, 1])


def test_classes_are_plain_coefficient_lists():
    # from L^0 up with no trailing zeros, [] for the zero class; the flag
    # class is the Grassmannian's times [P^n], against a plain convolution
    for N in range(30):
        assert gaussian_binomial(N, -1) == [] == gaussian_binomial(N, N + 1)
        for k in range(N + 1):
            g = gaussian_binomial(N, k)
            assert type(g) is list and len(g) == k * (N - k) + 1, (N, k)
            assert g[0] == g[-1] == 1, (N, k)
    for n in range(1, 13):
        grassmannian = gaussian_binomial(2 * n + 1, n)
        assert class_flag(n) == convolve(grassmannian, [1] * (n + 1)), n


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
