"""Exact linear algebra behind the section-symmetry probe."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypairs import pluecker
from cypairs.minors import _bareiss, _compound
from cypairs.pluecker import (
    _random_matrix,
    _support,
    _twist_fixes,
    as_matrix,
    compound,
    det,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    pluecker_embed,
    section_eval,
    symmetry_obstruction_probe,
    transpose,
    transposition_action,
)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return as_matrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng, d):
    while True:
        m = random_matrix(rng, d, d, -3, 3)
        if det(m):
            return m


def test_det_known_values():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert det([[1, 2], [2, 4]]) == 0
    assert det(identity(6)) == 1


def test_det_stays_polynomial(monkeypatch):
    # a full-order Laplace expansion would take about N 2^(N-1) products and
    # as many cofactor indices, so det must not build a compound: one
    # elimination finishes order 24 and a random order 16 well within 1 s
    def expand(rows, k):
        raise AssertionError("det built a compound")

    monkeypatch.setattr(pluecker, "_compound", expand)
    a = random_matrix(random.Random(173), 16, 16)
    start = time.perf_counter()
    assert det(identity(24)) == 1
    value = det(a)
    assert time.perf_counter() - start < 1.0
    assert value == det(transpose(a)) and det(mat_mul(a, a)) == value**2


def test_det_is_multiplicative_and_transpose_invariant():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 5)
        a = random_matrix(rng, d, d)
        b = random_matrix(rng, d, d)
        assert det(mat_mul(a, b)) == det(a) * det(b)
        assert det(transpose(a)) == det(a)


def test_inverse_round_trip_and_singular_rejection():
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(1, 5)
        a = random_invertible(rng, d)
        assert mat_mul(a, inverse(a)) == identity(d)
        assert mat_mul(inverse(a), a) == identity(d)
    try:
        inverse([[1, 2], [2, 4]])
    except ValueError:
        pass
    else:
        assert False, "singular matrix must be rejected"


def test_compound_edge_orders():
    rng = random.Random(5)
    a = random_matrix(rng, 4, 4)
    assert compound(a, 1) == a
    assert compound(a, 4) == ((det(a),),)
    assert compound(a, 0) == ((Fraction(1),),)
    for k in range(5):
        assert compound(identity(4), k) == identity(len(compound(a, k)))


def test_full_order_compound_is_one_elimination():
    # the level walk would visit every column set of a square matrix at full
    # order; one elimination returns order 24 well within 1 s
    start = time.perf_counter()
    assert compound(identity(24), 24) == ((Fraction(1),),)
    assert time.perf_counter() - start < 1.0
    rng = random.Random(181)
    for d in range(1, 9):
        for a in (random_matrix(rng, d, d), random_rational_matrix(rng, d)):
            assert compound(a, d) == ((det(a),),)


def test_compound_matches_per_minor_elimination():
    # the level-by-level Laplace compound against one Bareiss elimination
    # per minor, on every shape up to 6 x 6 and every order, including a
    # repeated row and a zero column
    rng = random.Random(179)
    for m in range(1, 7):
        for p in range(1, 7):
            a = [[rng.randint(-4, 4) for _ in range(p)] for _ in range(m)]
            singular = [[0, *row[1:]] for row in a]
            if m > 1:
                singular[-1] = singular[0]
            for rows in (a, singular):
                for k in range(min(m, p) + 1):
                    assert _compound(rows, k) == tuple(
                        tuple(
                            _bareiss([[rows[i][j] for j in J] for i in I])
                            for J in combinations(range(p), k)
                        )
                        for I in combinations(range(m), k)
                    ), (rows, k)


def test_compound_is_functorial():
    # Cauchy-Binet: the compound of a product is the product of compounds,
    # including rectangular factors.
    rng = random.Random(71)
    for _ in range(50):
        m = rng.randint(2, 5)
        p = rng.randint(2, 5)
        q = rng.randint(2, 5)
        k = rng.randint(1, min(m, p, q))
        a = random_matrix(rng, m, p)
        b = random_matrix(rng, p, q)
        assert compound(mat_mul(a, b), k) == mat_mul(compound(a, k), compound(b, k))
        assert compound(transpose(a), k) == transpose(compound(a, k))


def test_pluecker_embed_coordinate_plane():
    # span(e0, e1) in 4-space: only the (0,1) coordinate survives.
    coords = pluecker_embed([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert coords == (1, 0, 0, 0, 0, 0)
    try:
        pluecker_embed([[1, 2, 0], [2, 4, 0]])
    except ValueError:
        pass
    else:
        assert False, "dependent rows must be rejected"


def test_pluecker_embed_row_operations_rescale():
    rng = random.Random(37)
    for _ in range(30):
        n, big = rng.randint(1, 3), rng.randint(4, 6)
        a = random_matrix(rng, n, big)
        g = random_invertible(rng, n)
        try:
            coords = pluecker_embed(a)
        except ValueError:
            continue
        scaled = pluecker_embed(mat_mul(g, a))
        assert scaled == tuple(det(g) * c for c in coords)


def test_pluecker_embed_is_equivariant():
    # Acting on the ambient space transforms the coordinates through the
    # transposed compound matrix.
    rng = random.Random(41)
    checked = 0
    while checked < 50:
        n, big = rng.randint(1, 3), rng.randint(4, 6)
        a = random_matrix(rng, n, big)
        g = random_invertible(rng, big)
        try:
            coords = pluecker_embed(a)
        except ValueError:
            continue
        moved = pluecker_embed(mat_mul(a, g))
        assert moved == mat_vec(transpose(compound(g, n)), coords)
        checked += 1


def test_pluecker_quadric_relation():
    # For planes in 4-space the coordinates satisfy the classical quadric
    # p01 p23 - p02 p13 + p03 p12 = 0; this pins the lexicographic indexing.
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        a = random_matrix(rng, 2, 4)
        try:
            p = pluecker_embed(a)
        except ValueError:
            continue
        assert p[0] * p[5] - p[1] * p[4] + p[2] * p[3] == 0
        checked += 1


def test_section_eval_matches_explicit_sum():
    s = as_matrix([[1, 2], [3, 4]])
    assert section_eval(s, (1, 0), (0, 1)) == 3
    assert section_eval(s, (1, 1), (1, 1)) == 10
    rng = random.Random(67)
    for _ in range(20):
        d = rng.randint(1, 4)
        s = random_matrix(rng, d, d)
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
        y = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
        explicit = sum(
            y[i] * s[i][j] * x[j] for i in range(d) for j in range(d)
        )
        assert section_eval(s, x, y) == explicit


@pytest.mark.parametrize("y", [(1,), (1, 0, 5)])
def test_section_eval_rejects_a_point_of_the_wrong_length(y):
    with pytest.raises(ValueError, match="shape mismatch"):
        section_eval([[1, 2], [3, 4]], (1, 0), y)


def test_transposition_action_is_the_pullback():
    # The twisted section evaluated at (x, y) agrees with the original
    # section evaluated at the swapped images (M^{-T} y, M x), exactly.
    rng = random.Random(83)
    for _ in range(50):
        d = rng.randint(2, 5)
        s = random_matrix(rng, d, d)
        m = random_invertible(rng, d)
        minv_t = transpose(inverse(m))
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
        y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
        twisted = transposition_action(s, m)
        assert section_eval(twisted, x, y) == section_eval(
            s, mat_vec(minv_t, y), mat_vec(m, x)
        )


def test_transposition_action_involutive_for_symmetric_twist():
    rng = random.Random(97)
    for _ in range(25):
        d = rng.randint(2, 4)
        s = random_matrix(rng, d, d)
        while True:
            half = random_matrix(rng, d, d, -3, 3)
            m = mat_mul(half, transpose(half))
            if det(m):
                break
        assert transposition_action(transposition_action(s, m), m) == s


def test_symmetry_probe_reports_obstruction():
    probe = symmetry_obstruction_probe(2, trials=20, seed=0)
    assert probe["ambient_size"] == 10
    assert probe["hits"] == 0
    assert probe["identity_control_hits"] == 20
    assert (probe["flag_dimension"], probe["group_dimension"]) == (45, 25)
    assert probe["gap_holds"] and probe["obstructed"]
    # deterministic under the seed
    assert probe == symmetry_obstruction_probe(2, trials=20, seed=0)


def test_symmetry_probe_degenerate_case_is_honest():
    # At n = 1 the flag of the ambient is smaller than the group, so no
    # obstruction is claimed even though random sections still miss.
    probe = symmetry_obstruction_probe(1, trials=10, seed=3)
    assert not probe["gap_holds"]
    assert not probe["obstructed"]
    assert probe["identity_control_hits"] == 10


# recorded from the Fraction implementation the integer probe replaced; the
# seeded stream of S and M is unchanged, so every field must match
PROBE_RECORDED = {
    (1, 10, 3): {
        "n": 1, "ambient_size": 3, "trials": 10, "hits": 0,
        "identity_control_hits": 10, "flag_dimension": 3, "group_dimension": 9,
        "gap_holds": False, "obstructed": False,
    },
    (2, 20, 0): {
        "n": 2, "ambient_size": 10, "trials": 20, "hits": 0,
        "identity_control_hits": 20, "flag_dimension": 45, "group_dimension": 25,
        "gap_holds": True, "obstructed": True,
    },
    (2, 5, 1): {
        "n": 2, "ambient_size": 10, "trials": 5, "hits": 0,
        "identity_control_hits": 5, "flag_dimension": 45, "group_dimension": 25,
        "gap_holds": True, "obstructed": True,
    },
    (3, 5, 0): {
        "n": 3, "ambient_size": 35, "trials": 5, "hits": 0,
        "identity_control_hits": 5, "flag_dimension": 595, "group_dimension": 49,
        "gap_holds": True, "obstructed": True,
    },
    (3, 5, 1): {
        "n": 3, "ambient_size": 35, "trials": 5, "hits": 0,
        "identity_control_hits": 5, "flag_dimension": 595, "group_dimension": 49,
        "gap_holds": True, "obstructed": True,
    },
    (3, 2, 7): {
        "n": 3, "ambient_size": 35, "trials": 2, "hits": 0,
        "identity_control_hits": 2, "flag_dimension": 595, "group_dimension": 49,
        "gap_holds": True, "obstructed": True,
    },
}


@pytest.mark.parametrize("case", sorted(PROBE_RECORDED))
def test_symmetry_probe_matches_recorded(case):
    n, trials, seed = case
    assert symmetry_obstruction_probe(n, trials, seed) == PROBE_RECORDED[case]


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-4, 4), (-1, 1), (0, 0)])
def test_random_matrix_draws_the_randint_stream(lo, hi):
    # the probe's S and g are these draws: the batched getrandbits loop must
    # give randint's values in order and leave the generator where randint does
    for seed in range(20):
        for rows, cols in ((1, 1), (3, 4), (7, 7)):
            fast, slow = random.Random(seed), random.Random(seed)
            want = tuple(
                tuple(slow.randint(lo, hi) for _ in range(cols)) for _ in range(rows)
            )
            assert _random_matrix(fast, rows, cols, lo, hi) == want
            assert fast.getstate() == slow.getstate()


def random_rational_matrix(rng, d):
    return as_matrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
         for _ in range(d)]
    )


def test_det_and_compound_match_sympy():
    sympy = pytest.importorskip("sympy")

    def oracle_det(rows):
        # Berkowitz shares no elimination step with the engine
        value = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).det(method="berkowitz")
        return Fraction(int(value.p), int(value.q))

    rng = random.Random(131)
    corpus = []
    for d in range(1, 6):
        for _ in range(6):
            corpus.append(random_matrix(rng, d, d, -3, 3))
            corpus.append(random_rational_matrix(rng, d))
        # singular, and with a zero leading entry, so the pivot search runs
        a = [list(row) for row in random_matrix(rng, d, d)]
        if d > 1:
            a[-1] = a[0]
            corpus.append(as_matrix(a))
            a = [list(row) for row in random_rational_matrix(rng, d)]
            a[0][0] = 0
            corpus.append(as_matrix(a))
    for a in corpus:
        d = len(a)
        value = det(a)
        assert isinstance(value, Fraction) and value == oracle_det(a)
        for k in range(d + 1):
            got = compound(a, k)
            subsets = list(combinations(range(d), k))
            assert got == tuple(
                tuple(oracle_det([[a[i][j] for j in J] for i in I]) for J in subsets)
                for I in subsets
            )
            assert all(isinstance(x, Fraction) for row in got for x in row)


def product(a, b):
    # explicit triple sum, independent of the module's products
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_twist_predicate_is_exactly_the_matrix_equation():
    rng = random.Random(149)
    checked = hits = 0
    for _ in range(40):
        big = rng.randint(3, 5)
        k = rng.randint(1, big - 1)
        perm = list(range(big))
        rng.shuffle(perm)
        # compound of a permutation: a signed permutation matrix P, P^T = P^-1
        p = _compound([[int(perm[i] == j) for j in range(big)] for i in range(big)], k)
        d = len(p)
        powers = [tuple(tuple(int(i == j) for j in range(d)) for i in range(d))]
        while True:
            nxt = tuple(map(tuple, product(powers[-1], p)))
            if nxt == powers[0]:
                break
            powers.append(nxt)
        x = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        x = [[x[i][j] + x[j][i] for j in range(d)] for i in range(d)]
        # symmetric and averaged over the cyclic group of P, so S P = P S = P S^T
        fixed = [[0] * d for _ in range(d)]
        for q in powers:
            term = product(product(q, x), list(zip(*q)))
            fixed = [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(fixed, term)]
        general = random_invertible(rng, big)
        m = _compound([[int(v) for v in row] for row in general], k)
        for s, mat in ((fixed, p), (x, p), (fixed, m), (x, m)):
            s = tuple(map(tuple, s))
            want = product(s, mat) == product(mat, list(zip(*s)))
            assert _twist_fixes(_support(s), mat) is want
            hits += want
            checked += 1
    assert hits >= 40 and checked - hits >= 40


def dense_twist_fixes(s, m):
    # the dense column compare, kept as the reference: S (M e_j) against
    # M (row j of S), every entry of S multiplied in
    def apply(a, v):
        return tuple(sum(x * y for x, y in zip(row, v)) for row in a)

    return all(apply(s, col) == apply(m, row) for col, row in zip(zip(*m), s))


def test_twist_predicate_matches_the_dense_compare():
    # permutation, diagonal (zero rows included) and random sections against
    # the identity, a diagonal and a random compound; each kind both hits
    # and misses
    rng = random.Random(191)
    outcomes = set()
    for trial in range(60):
        big = rng.randint(3, 5)
        k = rng.randint(1, big - 1)
        m = _compound([[rng.randint(-3, 3) for _ in range(big)] for _ in range(big)], k)
        d = len(m)
        perm = list(range(d))
        rng.shuffle(perm)
        if trial % 2:  # an involution: P = P^T
            perm = list(range(d))
            for i in range(0, d - 1, 2):
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
        x = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(d)] for _ in range(d)]
        if trial % 3 == 0:  # symmetric
            x = [[x[i][j] + x[j][i] for j in range(d)] for i in range(d)]
        diag = [rng.randint(-2, 2) for _ in range(d)]
        sections = {
            "permutation": [[int(perm[i] == j) for j in range(d)] for i in range(d)],
            "diagonal": [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)],
            "random": x,
        }
        maps = (
            tuple(tuple(int(i == j) for j in range(d)) for i in range(d)),
            tuple(tuple(i + 1 if i == j else 0 for j in range(d)) for i in range(d)),
            m,
        )
        for kind, s in sections.items():
            s = tuple(map(tuple, s))
            for mat in maps:
                want = dense_twist_fixes(s, mat)
                assert _twist_fixes(_support(s), mat) is want, (s, mat)
                outcomes.add((kind, want))
    assert outcomes == {(kind, hit) for kind in sections for hit in (True, False)}


def test_twist_predicate_full_compare_after_agreeing_vectors():
    # S = diag(1..d) and M = I + E_(0,d-1): S M - M S^T = (1 - d) E_(0,d-1),
    # so every column but the last agrees and only the last one refutes
    d = 5
    s = tuple(tuple(i + 1 if i == j else 0 for j in range(d)) for i in range(d))
    m = tuple(tuple(int(i == j or (i, j) == (0, d - 1)) for j in range(d))
              for i in range(d))
    left, right = product(s, m), product(m, list(zip(*s)))
    for j in range(d):
        agree = [row[j] for row in left] == [row[j] for row in right]
        assert agree is (j < d - 1)
    assert not _twist_fixes(_support(s), m)
    one = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    assert _twist_fixes(_support(one), m)


def test_twist_predicate_hits_a_symmetric_compound_section():
    # M = C_k(g g^T) = C_k(g) C_k(g)^T is symmetric, so S = M is a fixed
    # section other than the identity: S M = M M = M S^T
    rng = random.Random(163)
    for _ in range(20):
        big = rng.randint(3, 5)
        k = rng.randint(1, big - 1)
        g = [[rng.randint(-3, 3) for _ in range(big)] for _ in range(big)]
        m = _compound(product(g, list(zip(*g))), k)
        assert m == tuple(zip(*m))
        assert any(m[i][j] for i in range(len(m)) for j in range(i))
        assert _twist_fixes(_support(m), m)


class Untouchable(int):
    # an entry of M that deciding a non-hit at entry (0, 0) must not multiply
    def __mul__(self, other):
        raise AssertionError("multiplied M outside row 0 and column 0")

    __rmul__ = __mul__


def test_a_non_hit_is_decided_at_entry_zero_zero():
    # (S M)[0][0] needs only column 0 of M and (M S^T)[0][0] only row 0, so a
    # dense S that differs there is refuted without multiplying any other entry
    rng = random.Random(211)
    d = 35
    s = tuple(tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(d)) for _ in range(d))
    m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    left = sum(s[0][k] * m[k][0] for k in range(d))
    assert left != sum(s[0][k] * m[0][k] for k in range(d))
    guarded = tuple(
        tuple(x if 0 in (i, j) else Untouchable(x) for j, x in enumerate(row))
        for i, row in enumerate(m)
    )
    assert not _twist_fixes(_support(s), guarded)


@st.composite
def twist_cases(draw):
    # sections mixing all-zero rows, one-nonzero rows and dense rows against
    # any M; S = c diag(1^r, 0^(d-r)) against a block lower triangular M,
    # where only the zero rows of S can disagree; and two constructed hits:
    # S = c I for any M, and S a polynomial in a symmetric M, so S^T = S
    # commutes with M
    d = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    m = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    kind = draw(st.sampled_from(("mixed", "zero rows", "scalar", "polynomial")))
    c = draw(entry)
    if kind == "mixed":
        single = st.tuples(st.integers(0, d - 1), entry.filter(bool)).map(
            lambda at: [at[1] if j == at[0] else 0 for j in range(d)]
        )
        dense = st.lists(entry, min_size=d, max_size=d)
        rows = st.one_of(st.just([0] * d), single, dense)
        s = draw(st.lists(rows, min_size=d, max_size=d))
    elif kind == "zero rows":
        r = draw(st.integers(0, d))
        m = [[0 if i < r <= j else x for j, x in enumerate(row)]
             for i, row in enumerate(m)]
        s = [[c * (i == j < r) for j in range(d)] for i in range(d)]
    elif kind == "scalar":
        s = [[c * (i == j) for j in range(d)] for i in range(d)]
    else:
        m = [[m[i][j] + m[j][i] for j in range(d)] for i in range(d)]
        a, b = draw(entry), draw(entry)
        square = product(m, m)
        s = [[a * (i == j) + b * m[i][j] + c * square[i][j] for j in range(d)]
             for i in range(d)]
    return kind, tuple(map(tuple, s)), tuple(map(tuple, m))


@settings(max_examples=300, deadline=None)
@given(twist_cases())
def test_twist_predicate_matches_the_dense_compare_property(case):
    kind, s, m = case
    want = dense_twist_fixes(s, m)
    assert want or kind not in ("scalar", "polynomial")
    assert _twist_fixes(_support(s), m) is want


def test_empty_matrices_are_accepted():
    assert mat_mul((), ()) == ()
    assert mat_vec((), ()) == ()
    assert section_eval((), (), ()) == 0
    assert det(()) == 1 and inverse(()) == () and compound((), 0) == ((1,),)
