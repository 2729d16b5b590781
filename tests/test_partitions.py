import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cypairs import partitions, symfunc
from cypairs.partitions import (
    check_partition,
    conjugate,
    is_partition,
    littlewood_richardson,
    partitions_of,
    trim,
    weight,
    weyl_dimension,
)
from cypairs.symfunc import plethysm_wedge


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


def test_trim_is_one_scan():
    start = time.perf_counter()
    assert trim((0,) * 40000) == ()
    assert time.perf_counter() - start < 0.1
    assert (trim(()), trim((0,)), trim((3, 0, 0))) == ((), (), (3,))


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
    # exhaustive, so mu_1 = a_1 + b_1 (the widest shape of a product) occurs;
    # the walk swaps the factors, so the symmetry only tests |a| = |b| and
    # the tableau reference below is the guard
    pool = [p for w in range(6) for p in partitions_of(w)]
    for a, b, rank in itertools.product(pool, pool, range(1, 8)):
        dec = littlewood_richardson(a, b, rank)
        assert dec == littlewood_richardson(b, a, rank)
        for mu in dec:
            assert weight(mu) == weight(a) + weight(b)
        if len(a) <= rank and len(b) <= rank:
            lhs = weyl_dimension(a, rank=rank) * weyl_dimension(b, rank=rank)
            rhs = sum(c * weyl_dimension(mu, rank=rank) for mu, c in dec.items())
            assert lhs == rhs


# the tableau count that computed littlewood_richardson before the
# characteristic-map walk, kept as the reference
def tableau_littlewood_richardson(a, b, rank: int) -> dict[tuple, int]:
    """Decompose s_a * s_b into Schur functions with at most `rank` rows.

    Returns {mu: c^mu_{a,b}} with every coefficient positive.  Coefficients are
    computed by enumerating Littlewood-Richardson skew tableaux of shape mu/a
    and content b: rows weakly increase, columns strictly increase, and the
    reverse reading word (right to left, top to bottom) is a lattice word.
    Partitions mu with more than `rank` rows are discarded.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    a = check_partition(a)
    b = check_partition(b)
    if not b:
        return {a: 1} if len(a) <= rank else {}
    if not a:
        return {b: 1} if len(b) <= rank else {}
    out: dict[tuple, int] = {}
    total = weight(a) + weight(b)
    max_rows = min(rank, len(a) + len(b))
    # mu contains a; the first row of mu/a holds only 1s (its last cell
    # starts the lattice word), at most b_1 of them
    for mu in partitions_of(total, max_part=a[0] + b[0], max_rows=max_rows):
        if len(mu) >= len(a) and all(m >= x for m, x in zip(mu, a)):
            c = _count_lr_fillings(mu, a, b)
            if c:
                out[mu] = c
    return out


def _count_lr_fillings(mu, a, b) -> int:
    """Number of LR skew tableaux of shape mu/a with content b."""
    rows = len(mu)
    a = a + (0,) * (rows - len(a))
    # cells of the skew shape in reverse-reading-word order: every constraint
    # (row-weak left neighbor, column-strict upper neighbor, lattice prefix)
    # only looks at cells already placed in this order
    cells = []
    for i in range(rows):
        for j in range(mu[i] - 1, a[i] - 1, -1):
            cells.append((i, j))
    nvals = len(b)
    grid = {}
    counts = [0] * (nvals + 1)
    found = 0

    def place(idx):
        nonlocal found
        if idx == len(cells):
            found += 1
            return
        i, j = cells[idx]
        lo = 1
        hi = nvals
        if (i, j + 1) in grid:
            hi = min(hi, grid[(i, j + 1)])  # row weakly increases
        if (i - 1, j) in grid:
            lo = max(lo, grid[(i - 1, j)] + 1)  # column strictly increases
        for v in range(lo, hi + 1):
            if counts[v] >= b[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice condition on the reverse reading word
            counts[v] += 1
            grid[(i, j)] = v
            place(idx + 1)
            del grid[(i, j)]
            counts[v] -= 1

    place(0)
    return found


def test_lr_matches_the_tableau_count():
    # every (a, b, rank) with |a|, |b| <= 6, |a| + |b| <= 9 and rank <= 7,
    # key order included
    pool = [p for w in range(7) for p in partitions_of(w)]
    cases = 0
    for a, b in itertools.product(pool, pool):
        if weight(a) + weight(b) > 9:
            continue
        for rank in range(1, 8):
            got = littlewood_richardson(a, b, rank)
            assert repr(got) == repr(tableau_littlewood_richardson(a, b, rank)), (a, b, rank)
            cases += 1
    assert cases == 3262


@pytest.mark.parametrize("a, b, rank, want", [
    ((), (), 1, {(): 1}),
    ((2, 1), (), 2, {(2, 1): 1}),
    ((), (3, 3, 1), 3, {(3, 3, 1): 1}),
    ((1, 1, 1), (), 2, {}),
    ((1, 1, 1), (2,), 2, {}),
    ((2,), (1, 1, 1), 2, {}),
    ((3,), (2,), 1, {(5,): 1}),
    ((2, 1), (1,), 1, {}),
    ((4, 2), (3, 1), 2, {(7, 3): 1, (6, 4): 1, (5, 5): 1}),
])
def test_lr_edge_cases(a, b, rank, want):
    got = littlewood_richardson(a, b, rank)
    assert got == want
    assert repr(got) == repr(tableau_littlewood_richardson(a, b, rank))


@pytest.mark.parametrize(
    "corrupt",
    [lambda moves: [(moves[0][0], -moves[0][1]), *moves[1:]], lambda moves: moves[1:]],
    ids=["flipped-sign", "dropped-move"],
)
def test_walk_refuses_a_wrong_strip_map(monkeypatch, corrupt):
    # one wrong sign or one lost move among the single boxes added leaves a
    # remainder mod w! or a negative coefficient, and the walk raises instead
    # of returning coefficients
    strips = partitions._border_strips

    def wrong(beads, m, grow, n=1):
        moves = strips(beads, m, grow, n)
        return corrupt(moves) if grow and m == 1 and moves else moves

    monkeypatch.setattr(partitions, "_border_strips", wrong)
    with pytest.raises(AssertionError):
        littlewood_richardson((2, 1), (2, 1), 3)
    with pytest.raises(AssertionError):
        plethysm_wedge((2, 1), 2)


# the walk that recursed once per part of rho, 1s included, before the
# tail of 1s was summed in closed form, kept as the reference
def walk_per_part(start, origin, rows, down=1, up=1):
    w = weight(start) // down
    scale = math.factorial(w)
    memo = {}

    def spread(out, terms, m, grow):
        for b, x in terms.items():
            moves = memo.get((b, m, grow))
            if moves is None:
                moves = partitions._border_strips(b, m, grow, up if grow else down)
                memo[b, m, grow] = moves
            for b2, y in moves:
                out[b2] = out.get(b2, 0) + x * y
        return out

    def visit(prefix, left, terms):
        if not left:
            (value,) = terms.values()
            return {partitions._beads(origin, rows): value * (scale // partitions._z(prefix))}
        out = {}
        for m in range(min(left, prefix[-1] if prefix else left), 0, -1):
            below = {b: x for b, x in spread({}, terms, m, False).items() if x}
            if below:
                spread(out, visit(prefix + (m,), left - m, below), m, True)
        return out

    total = visit((), w, {partitions._beads(start, len(start)): 1})
    out = {}
    for mu in partitions_of(weight(origin) + up * w, max_rows=rows):
        c, rest = divmod(total.get(partitions._beads(mu, rows), 0), scale)
        assert rest == 0 and c >= 0
        if c:
            out[mu] = c
    return out


def single_box_chain(beads, n):
    # <D_1^r s_b, 1> for the n-bead move of one place, by plain recursion
    if beads == (1 << beads.bit_length()) - 1:
        return 1
    return sum(y * single_box_chain(b, n) for b, y in partitions._border_strips(beads, 1, False, n))


def _lr_setups():
    # plain strips both ways, onto a non-empty origin, on len(a) to 4 rows:
    # fewer than many of the products have
    pool = [p for w in range(6) for p in partitions_of(w)]
    for a, b in itertools.product(pool, pool):
        if a and weight(a) + weight(b) <= 8:
            for rows in range(len(a), 5):
                yield b, a, rows, 1, 1


def _plethysm_setups():
    # plain strips down from lam, n-bead moves up onto the empty shape
    for n, top in ((2, 5), (3, 4)):
        for w in range(top + 1):
            for lam in partitions_of(w):
                for rows in sorted({1, n, 2 * n + 1, n * w}):
                    yield lam, (), rows, 1, n


def _det_setups():
    # n-bead moves down from every shape of n*w boxes on enough beads,
    # plain strips up onto the empty shape; many starts, and many of the
    # down-states inside the walk, have a single-box chain that dies
    for n, top in ((2, 5), (3, 3)):
        for w in range(top + 1):
            for lam in partitions_of(n * w):
                for pad in range(max(n - len(lam), 0), n + 1):
                    start = lam + (0,) * pad
                    for rows in sorted({1, 2, w, math.comb(2 * n + 1, n)}):
                        yield start, (), rows, n, 1


@pytest.mark.parametrize("setups", [_lr_setups, _plethysm_setups, _det_setups],
                         ids=["lr", "plethysm", "det"])
def test_walk_sums_the_tail_of_ones_like_the_per_part_walk(setups):
    # values and key order, including rows fewer than the shapes have
    dead = 0
    for start, origin, rows, down, up in setups():
        got = partitions._walk(start, origin, rows, down, up)
        want = walk_per_part(start, origin, rows, down, up)
        assert list(got.items()) == list(want.items()), (start, origin, rows, down, up)
        beads = partitions._beads(start, len(start))
        dead += not single_box_chain(beads, down)
    if setups is _det_setups:
        assert dead > 0


class CountedMoves(list):
    """A list of moves that counts, per bead set, how often it is read."""

    reads = collections.Counter()

    def __init__(self, moves, key):
        super().__init__(moves)
        self.key = key

    def __iter__(self):
        self.reads[self.key] += 1
        return super().__iter__()


def test_walk_reads_each_single_box_up_move_once(monkeypatch):
    # T_r is built once per walk, so the one-place up moves of a shape are
    # read once, where every chain of 1s read them again
    strips = partitions._border_strips
    monkeypatch.setattr(CountedMoves, "reads", collections.Counter())
    monkeypatch.setattr(
        partitions,
        "_border_strips",
        lambda beads, m, grow, n=1: CountedMoves(strips(beads, m, grow, n), (beads, m, grow)),
    )
    k, mults = symfunc._det_multiplicities(2, 15, 30)
    assert (k, mults[(7, 4, 2, 1, 1)]) == (6, 2)
    ups = [reads for (beads, m, grow), reads in CountedMoves.reads.items() if grow and m == 1]
    assert len(ups) > 100 and max(ups) == 1


def test_border_strips_moves_as_many_beads_as_the_stack_holds():
    # one bead of each of 2000 rows moves up one place: a single vertical
    # strip, the column (1^2000), with no bead jumped; a move that recursed
    # once per bead ran out of Python frames here
    beads = partitions._beads((), 2000)
    moves = partitions._border_strips(beads, 1, True, 2000)
    assert moves == [(partitions._beads((1,) * 2000, 2000), 1)]


def test_lr_rank_past_the_boxes_costs_nothing():
    # budget: 0.1 seconds; no product of 4 boxes has more than 4 rows, so
    # the walk keeps at most 4 beads whatever the rank
    t0 = time.perf_counter()
    got = littlewood_richardson((2, 1), (1,), 10**5)
    assert time.perf_counter() - t0 < 0.1
    assert got == littlewood_richardson((2, 1), (1,), 4)


def test_lr_rejects_bad_input():
    with pytest.raises(ValueError):
        littlewood_richardson((1,), (1,), 0)
    with pytest.raises(ValueError):
        littlewood_richardson((1, 2), (1,), 3)


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
    # the earlier formula: the product over all pairs i < j, divided once by
    # prod_{i<j} (j - i), the superfactorial prod_{k<r} k!
    r = len(w)
    num = math.prod(w[i] - w[j] + j - i for i in range(r) for j in range(i + 1, r))
    den = math.prod(math.factorial(k) for k in range(r))
    assert num % den == 0
    return num // den


def test_weyl_dimension_matches_pairwise_formula():
    rng = random.Random(41)
    for _ in range(300):
        r = rng.randrange(1, 18)
        w = tuple(sorted((rng.randrange(-6, 10) for _ in range(r)), reverse=True))
        assert weyl_dimension(w) == weyl_dimension_pairwise(w)
    # long weights with a few distinct entries, like the Bott weights of
    # G(n, 2n+1) at large n; the formula above takes about 2 s at 501
    for r in (100, 200, 501):
        values = rng.sample(range(-6, 7), rng.randrange(1, 5))
        w = tuple(sorted((rng.choice(values) for _ in range(r)), reverse=True))
        assert weyl_dimension(w) == weyl_dimension_pairwise(w), r


def test_weyl_dimension_of_a_long_weight_is_quick():
    # the weight of Q at n = 250; the single superfactorial quotient took
    # about 2 s here
    t0 = time.perf_counter()
    assert weyl_dimension((1,) + (0,) * 500) == 501
    assert time.perf_counter() - t0 < 0.2
