"""Integer partitions, dominant GL weights, and the characteristic-map walk
that reads every Schur coefficient of the package.

Partitions are plain tuples of non-negative integers, weakly decreasing, with
trailing zeros trimmed (the empty tuple is the unique partition of 0).  Weights
are plain tuples of integers of a fixed length (the rank); they may have
negative entries but must be weakly decreasing wherever dominance is required.
Everything here is exact integer arithmetic.

Schur coefficients are read by the characteristic map (Macdonald, Symmetric
Functions and Hall Polynomials, I.7): s_b is the sum over rho |- |b| of
chi^b(rho) p_rho / z_rho.  So the coefficient of s_mu in s_a s_b is

    sum over rho of chi^b(rho) <p_rho s_a, s_mu> / z_rho,

and `symfunc` reads plethysms the same way, with p_rho[e_n] in place of
p_rho s_a.  One walk, `_walk`, computes such sums for every shape at once:
it takes a start shape, an origin shape, a row count and the bead count of
each side's move (1 for p_m, n for p_m[e_n]), and returns the nonzero Schur
coefficients.  It runs over the rho, parts non-increasing, and shares their
prefixes: going down, it removes the parts one at a time from the start
shape and cuts a prefix that leaves nothing; coming back up, it adds them
to the origin shape.  It branches on the parts of 2 or more only and sums
the tail of 1s of each prefix in closed form: the single-box chains down
to the empty shape are counted once per down-state (g), and the single
boxes are added to the origin once per count r (T_r).  Both maps move
beads of beta-sets held as bitmasks (Macdonald I.3 and I.7), which no
caller sees: p_m moves one bead m places, a border strip signed by the
Murnaghan-Nakayama rule, and p_m[e_n] moves n, all by one loop over a
stack.  The walk scales every weight by w!, for rho |- w, so the sums are
exact integers; a remainder or a negative coefficient contradicts Schur
positivity and raises.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod


def trim(parts) -> tuple:
    """Canonical form: drop trailing zeros, return a tuple."""
    parts = tuple(parts)
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def is_partition(parts) -> bool:
    """Whether parts (any iterable) are non-negative ints, weakly decreasing."""
    prev = None
    for x in parts:
        if not isinstance(x, int) or x < 0 or prev is not None and x > prev:
            return False
        prev = x
    return True


def check_partition(parts) -> tuple:
    """Validate and canonicalize; raises ValueError on bad input."""
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return trim(parts)


def weight(p) -> int:
    """|p|, the number of boxes."""
    return sum(p)


def conjugate(p) -> tuple:
    """Transpose of the Young diagram: conjugate(p)[j] = #{i : p[i] > j}."""
    p = check_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > j) for j in range(p[0]))


def partitions_of(w: int, max_part: int | None = None, max_rows: int | None = None):
    """Yield the partitions of w in descending lex order (graded lex within w),
    with parts at most max_part and at most max_rows rows.

    Each step keeps the longest prefix it can: the rightmost row that can
    lose one box while the rows after it still hold the rest is decremented,
    and the rest is packed greedily below it.
    """
    if w == 0:
        yield ()
        return
    if max_part is None:
        max_part = w
    if max_rows is None:
        max_rows = w
    top = min(w, max_part)
    if top <= 0 or w > top * max_rows:
        return
    parts = [top] * (w // top)
    if w % top:
        parts.append(w % top)
    while True:
        yield tuple(parts)
        rest = 0
        for j in range(len(parts) - 1, -1, -1):
            p = parts[j] - 1
            rest += 1
            if p and rest <= p * (max_rows - 1 - j):
                break
            rest += p
        else:
            return
        del parts[j:]
        parts += [p] * (rest // p + 1)
        if rest % p:
            parts.append(rest % p)


def weyl_dimension(w, rank: int | None = None) -> int:
    """Dimension of the irreducible GL(rank) representation of highest weight w.

    It is prod_{i<j} (l_i - l_j) / (j - i), l_i = w_i - i, taken one prefix
    at a time: step j takes the pairs (i, j) and divides by j!, exactly, as
    d is then the GL(j+1) dimension of w[:j+1].  Entries may be negative; w
    is padded with zeros up to `rank` and must end up weakly decreasing.
    """
    w = tuple(w)
    if rank is None:
        rank = len(w)
    if rank < len(w):
        raise ValueError("rank smaller than the weight length")
    w = w + (0,) * (rank - len(w))
    if any(w[i] < w[i + 1] for i in range(rank - 1)):
        raise ValueError(f"weight is not weakly decreasing: {w!r}")
    l = [x - i for i, x in enumerate(w)]
    d = 1
    for j in range(1, rank):
        d, r = divmod(d * prod(x - l[j] for x in l[:j]), factorial(j))
        assert r == 0 and d >= 1
    return d


def _border_strips(beads, m, grow, n=1):
    """(beads', sign) for every way to move n distinct beads of the bitmask
    beta-set `beads` m places each, up (grow) or down: the map of p_m[e_n]
    (see the `symfunc` docstring), and of p_m at n = 1.

    A shape with at most L rows has the beta-set {lam_i + L - i}.  One move
    is a border strip of m boxes, with sign -1 to the number of beads it
    jumps.  The beads of a set move in turn, from the bottom up when removing
    and from the top down when adding, so each target is empty or was just
    left by an earlier bead, and each sign is taken on the beads as the
    earlier moves left them.  The partial sets wait on one stack as (beads,
    sign, beads that may move next, beads still to move).  Only beads whose
    target is free are visited, and a bead starts a partial set only if
    enough beads lie beyond it to finish the set.  Moves keep the number of
    beads, so adding never gives a shape with more than L rows.
    """
    out = []
    stack = [(beads, 1, beads, n)]
    while stack:
        now, sign, rest, left = stack.pop()
        # the beads of `rest` whose target is free
        free = rest & ~(now >> m) if grow else rest & ~(now << m) & ~((1 << m) - 1)
        while free:
            bit = free & -free
            free ^= bit
            if left > 1:
                # the later beads of the set lie beyond this one
                later = rest & bit - 1 if grow else rest & -(bit << 1)
                if later.bit_count() < left - 1:
                    if grow:
                        continue
                    break  # removing, every bead further up has fewer beyond it
            lo, hi = (bit, bit << m) if grow else (bit >> m, bit)
            jumped = (now & hi - (lo << 1)).bit_count()
            moved, signed = now ^ lo ^ hi, -sign if jumped & 1 else sign
            if left == 1:
                out.append((moved, signed))
            else:
                stack.append((moved, signed, later, left - 1))
    return out


def _z(parts):
    """z_rho: the order of the centralizer of a permutation of cycle type rho."""
    return prod(i**m * factorial(m) for i, m in Counter(parts).items())


def _beads(lam, rows):
    """The beta-set of lam on `rows` beads, as a bitmask."""
    padded = lam + (0,) * (rows - len(lam))
    return sum(1 << x + rows - 1 - i for i, x in enumerate(padded))


def _walk(start, origin, rows, down=1, up=1):
    """{mu: coefficient of s_mu in S}, nonzero only, in graded lex order,
    where S is the sum over rho |- w of <D_rho s_start, 1> U_rho s_origin /
    z_rho and w = |start| / down.

    D_rho removes the parts of rho from `start`, and U_rho adds them to
    `origin` on `rows` beads; a part m is the move of `_border_strips` on
    `down` or `up` beads, which is p_m at 1 and p_m[e_n] at n.  The walk
    branches on the parts of 2 or more only.  A node whose prefix mu leaves
    r boxes holds the down-states b of D_mu s_start with their weights x.
    Its child of part 1 starts one chain, rho = mu 1^r, which the node adds
    in closed form:

        (sum over b of x g(b)) w! / (z_mu r!) T_r,

    since z_rho = z_mu r! when mu has no part 1.  Here g(b) = <D_1^r s_b, 1>
    is memoized on the down-states, g(empty) = 1 and g(b) = sum of sign
    g(b') over the one-place moves b -> b', and T_r = U_1^r s_origin is
    built once, T_0 = s_origin and T_r = U_1 T_(r-1).  Going down a prefix,
    a prefix with nothing left is cut, since every rho it starts adds 0.
    Coming back up, the parts after the prefix are added to what the rest
    of the walk returns.  That side keeps min(rows, len(origin) + up * w)
    beads: a strip never removes a row, so a shape past `rows` leads to no
    fit, and a part m adds `up` strips of at most m rows each, so no shape
    reached has more.  The moves, g and T_r live for this call.
    """
    w = weight(start) // down
    rows = min(rows, len(origin) + up * w)
    scale = factorial(w)
    memo = {}
    chains = {_beads((), len(start)): 1}  # g on the down-states
    tails = [{_beads(origin, rows): 1}]  # T_0, T_1, ... as far as needed

    def moves(b, m, grow):
        got = memo.get((b, m, grow))
        if got is None:
            got = memo[b, m, grow] = _border_strips(b, m, grow, up if grow else down)
        return got

    def spread(out, terms, m, grow):
        # adds to `out` the image of `terms` under the move of m places
        for b, x in terms.items():
            for b2, y in moves(b, m, grow):
                out[b2] = out.get(b2, 0) + x * y
        return out

    def chain(b):
        g = chains.get(b)
        if g is None:
            g = 0
            for b2, y in moves(b, 1, False):
                g += y * chain(b2)
            chains[b] = g
        return g

    def visit(prefix, left, terms):
        out = {}
        tail = sum(x * chain(b) for b, x in terms.items())
        if tail:
            while len(tails) <= left:
                tails.append(spread({}, tails[-1], 1, True))
            tail *= scale // (_z(prefix) * factorial(left))
            out = {b: tail * x for b, x in tails[left].items()}
        for m in range(min(left, prefix[-1] if prefix else left), 1, -1):
            below = {b: x for b, x in spread({}, terms, m, False).items() if x}
            if below:
                spread(out, visit(prefix + (m,), left - m, below), m, True)
        return out

    total = visit((), w, {_beads(start, len(start)): 1})
    # visit refers to itself, so only the cycle collector would free these
    memo.clear()
    chains.clear()
    tails.clear()
    out = {}
    for mu in partitions_of(weight(origin) + up * w, max_rows=rows):
        c, rest = divmod(total.get(_beads(mu, rows), 0), scale)
        if rest or c < 0:  # each coefficient is a multiplicity
            raise AssertionError(f"coefficient {c} + {rest}/{scale} at {mu}")
        if c:
            out[mu] = c
    return out


def littlewood_richardson(a, b, rank: int) -> dict[tuple, int]:
    """Decompose s_a * s_b into Schur functions with at most `rank` rows.

    Returns {mu: c^mu_{a,b}} in graded lex order, with every coefficient
    positive.  The factors are swapped so that b has fewer boxes, since
    c^mu_{a,b} = c^mu_{b,a} and the walk runs over the rho |- |b|; it adds
    strips to a on at most `rank` beads, which drops every mu with more rows.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    a = check_partition(a)
    b = check_partition(b)
    if len(a) > rank or len(b) > rank:
        return {}
    if weight(a) < weight(b):
        a, b = b, a
    return _walk(b, a, rank)
