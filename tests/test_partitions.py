import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cypairs.partitions import (
    conjugate,
    is_partition,
    littlewood_richardson,
    partitions_of,
    trim,
    weight,
    weyl_dimension,
)


def conjugate_by_cells(p):
    # independent oracle: transpose the set of diagram cells
    cells = {(i, j) for i, row in enumerate(p) for j in range(row)}
    flipped = {(j, i) for (i, j) in cells}
    rows = max((i for i, _ in flipped), default=-1) + 1
    return tuple(sum(1 for (i, _) in flipped if i == r) for r in range(rows))


def hook_content_dimension(p, n):
    # independent oracle: dim = prod over cells (n + j - i) / hook(i, j)
    conj = conjugate_by_cells(p)
    num = 1
    den = 1
    for i, row in enumerate(p):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1
    return num // den


def test_trim():
    assert trim((3, 1, 0, 0)) == (3, 1)
    assert trim(()) == ()
    assert trim((0, 0)) == ()


def is_partition_two_pass(parts):
    # the earlier two-pass definition, kept as the reference
    parts = tuple(parts)
    return all(isinstance(x, int) and x >= 0 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


_ENTRY = st.one_of(
    st.integers(-3, 6),
    st.booleans(),
    st.sampled_from([1.0, 2.5, "1", None, Fraction(1)]),
)


@given(
    st.one_of(
        st.lists(_ENTRY, max_size=8),
        st.lists(st.integers(-1, 6), max_size=8).map(lambda xs: sorted(xs, reverse=True)),
    ),
    st.sampled_from([tuple, list, iter]),
)
def test_is_partition_matches_two_pass_definition(parts, container):
    # any iterable is accepted, bools count as ints, non-ints are rejected
    assert is_partition(container(parts)) == is_partition_two_pass(parts)


def test_conjugate_known():
    assert conjugate((2, 1)) == (2, 1)  # self-conjugate staircase
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_matches_cell_transpose_and_involutes():
    rng = random.Random(7)
    for _ in range(200):
        p = trim(tuple(sorted((rng.randrange(0, 7) for _ in range(5)), reverse=True)))
        assert conjugate(p) == conjugate_by_cells(p)
        assert conjugate(conjugate(p)) == p


def test_weyl_dimension_basics():
    assert weyl_dimension((0, 0, 0, 0, 0)) == 1
    assert weyl_dimension((1, 1), rank=5) == math.comb(5, 2)
    assert weyl_dimension((2, 2, 1), rank=5) == 75


def test_weyl_dimension_columns_are_binomials():
    for n in range(1, 10):
        for k in range(0, n + 1):
            assert weyl_dimension((1,) * k, rank=n) == math.comb(n, k)


def test_weyl_dimension_matches_hook_content():
    rng = random.Random(19)
    for _ in range(100):
        p = trim(tuple(sorted((rng.randrange(0, 6) for _ in range(4)), reverse=True)))
        n = rng.randrange(max(1, len(p)), 9)
        assert weyl_dimension(p, rank=n) == hook_content_dimension(p, n)


def test_weyl_dimension_translation_covariance():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randrange(2, 7)
        w = tuple(sorted((rng.randrange(-4, 5) for _ in range(n)), reverse=True))
        c = rng.randrange(-3, 4)
        assert weyl_dimension(w) == weyl_dimension(tuple(x + c for x in w))


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dimension((1, 2, 0))
    with pytest.raises(ValueError):
        weyl_dimension((1, 1, -1), rank=5)  # zero padding breaks dominance


def test_lr_units():
    assert littlewood_richardson((3, 1), (), rank=5) == {(3, 1): 1}
    assert littlewood_richardson((), (2, 2), rank=5) == {(2, 2): 1}
    assert littlewood_richardson((1,), (1,), rank=5) == {(2,): 1, (1, 1): 1}


def test_lr_column_times_box():
    # Q x wedge^n Q pattern: (1) x (1^n) at rank n+1
    for n in range(1, 5):
        got = littlewood_richardson((1,), (1,) * n, rank=n + 1)
        assert got == {(2,) + (1,) * (n - 1): 1, (1,) * (n + 1): 1}


def test_lr_rank_cutoff():
    # the (1,1) summand needs two rows, so rank 1 keeps only (2)
    assert littlewood_richardson((1,), (1,), rank=1) == {(2,): 1}


def test_lr_symmetry_and_bilinearity_small():
    rng = random.Random(31)
    pool = [p for w in range(0, 5) for p in partitions_of(w)]
    for _ in range(60):
        a = rng.choice(pool)
        b = rng.choice(pool)
        rank = rng.randrange(1, 8)
        dec = littlewood_richardson(a, b, rank)
        assert dec == littlewood_richardson(b, a, rank)
        for mu in dec:
            assert weight(mu) == weight(a) + weight(b)
        if len(a) <= rank and len(b) <= rank:
            lhs = weyl_dimension(a, rank=rank) * weyl_dimension(b, rank=rank)
            rhs = sum(c * weyl_dimension(mu, rank=rank) for mu, c in dec.items())
            assert lhs == rhs


def test_partitions_of_graded_lex_order():
    got = list(partitions_of(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(4, max_rows=2)) == [(4,), (3, 1), (2, 2)]


def partitions_recursive(w, max_part=None, max_rows=None):
    # the earlier recursive definition, kept as the reference
    if max_part is None:
        max_part = w
    if w == 0:
        yield ()
        return
    if max_rows is not None and max_rows <= 0:
        return
    for first in range(min(w, max_part), 0, -1):
        rows_left = None if max_rows is None else max_rows - 1
        for rest in partitions_recursive(w - first, first, rows_left):
            yield (first,) + rest


def test_partitions_of_matches_recursive_definition():
    bounds = (None, 0, 1, 3, 7)
    for w in range(21):
        for max_part in bounds:
            for max_rows in bounds:
                got = partitions_of(w, max_part=max_part, max_rows=max_rows)
                want = partitions_recursive(w, max_part, max_rows)
                assert list(got) == list(want), (w, max_part, max_rows)


def weyl_dimension_pairwise(w):
    # the earlier formula: both products over all pairs i < j
    r = len(w)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    num = math.prod(w[i] - w[j] + j - i for i, j in pairs)
    den = math.prod(j - i for i, j in pairs)
    assert num % den == 0
    return num // den


def test_weyl_dimension_matches_pairwise_formula():
    rng = random.Random(41)
    for _ in range(300):
        r = rng.randrange(1, 18)
        w = tuple(sorted((rng.randrange(-6, 10) for _ in range(r)), reverse=True))
        assert weyl_dimension(w) == weyl_dimension_pairwise(w)
