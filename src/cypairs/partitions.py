"""Integer partitions, dominant GL weights, and Littlewood-Richardson coefficients.

Partitions are plain tuples of non-negative integers, weakly decreasing, with
trailing zeros trimmed (the empty tuple is the unique partition of 0).  Weights
are plain tuples of integers of a fixed length (the rank); they may have
negative entries but must be weakly decreasing wherever dominance is required.
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from math import factorial, prod


def trim(parts) -> tuple:
    """Canonical form: drop trailing zeros, return a tuple."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


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

    Computes prod_{i<j} (w_i - w_j + j - i) / (j - i) over exact integers,
    reducing the single quotient at the end.  Entries may be negative; w is
    padded with zeros up to `rank` and must end up weakly decreasing.
    """
    w = tuple(w)
    if rank is None:
        rank = len(w)
    if rank < len(w):
        raise ValueError("rank smaller than the weight length")
    w = w + (0,) * (rank - len(w))
    if any(w[i] < w[i + 1] for i in range(rank - 1)):
        raise ValueError(f"weight is not weakly decreasing: {w!r}")
    num = prod(w[i] - w[j] + j - i for i in range(rank) for j in range(i + 1, rank))
    # prod_{i<j} (j - i) is the superfactorial prod_{k<rank} k!
    den = prod(factorial(k) for k in range(rank))
    q, r = divmod(num, den)
    assert r == 0 and q >= 1
    return q


def littlewood_richardson(a, b, rank: int) -> dict[tuple, int]:
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
    for mu in _containing_partitions(a, total, max_rows):
        c = _count_lr_fillings(mu, a, b)
        if c:
            out[mu] = c
    return out


def _containing_partitions(a, total, max_rows):
    """Partitions of `total` with at most max_rows rows containing a."""
    if len(a) > max_rows:
        return
    a = a + (0,) * (max_rows - len(a))

    def rec(i, prev, left):
        if i == max_rows:
            if left == 0:
                yield ()
            return
        lo = a[i]
        hi = min(prev, left)
        for v in range(hi, lo - 1, -1):
            for rest in rec(i + 1, v, left - v):
                yield (v,) + rest

    for mu in rec(0, total, total):
        yield trim(mu)


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
