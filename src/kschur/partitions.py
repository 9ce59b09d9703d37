"""Partitions, (k+1)-cores and the k-conjugation involution.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple stands for the empty partition.  A partition is k-bounded when
no part exceeds k.  Everywhere below, ``k=None`` means "unbounded", in
which case the k-dependent notions degenerate to their classical
counterparts: k-conjugation becomes ordinary transposition and horizontal
k-strips become horizontal strips.

All functions are pure and all values immutable, so everything here is
safe for concurrent use; the memo tables are functools caches.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import accumulate, count

from .errors import DomainError


def check_partition(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition given as any iterable."""
    lam = tuple(int(p) for p in parts)
    if any(p < 1 for p in lam):
        raise DomainError(f"partition parts must be positive: {lam!r}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise DomainError(f"partition parts must weakly decrease: {lam!r}")
    return lam


def is_k_bounded(parts, k) -> bool:
    """True when no part of a partition or composition exceeds k."""
    return k is None or all(p <= k for p in parts)


def require_k_bounded(parts, k) -> None:
    if not is_k_bounded(parts, k):
        raise DomainError(f"{parts!r} is not {k}-bounded")


def transpose(lam) -> tuple[int, ...]:
    """Conjugate partition (columns become rows)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def contains(lam, mu) -> bool:
    """Componentwise containment of Young diagrams."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def hook_lengths(lam) -> dict[tuple[int, int], int]:
    """Hook length of every cell, keyed by 1-based (row, column)."""
    t = transpose(lam)
    return {
        (r, c): (lam[r - 1] - c) + (t[c - 1] - r) + 1
        for r in range(1, len(lam) + 1)
        for c in range(1, lam[r - 1] + 1)
    }


def is_core(lam, t) -> bool:
    """True when no cell of ``lam`` has hook length exactly ``t``.

    Read from the first-column hooks b_i = lam_i + len(lam) - i: the hooks
    of row i are 1..b_i minus {b_i - b_j : j > i}, so a t-hook exists
    exactly when some b >= t has b - t outside the set of all b.
    """
    if t < 2:
        raise DomainError("core parameter must be at least 2")
    firsts = {p + len(lam) - i for i, p in enumerate(lam, 1)}
    return all(b - t < 0 or b - t in firsts for b in firsts)


def _skew_offsets(lam, k) -> list:
    """The offset of each row of the k-skew diagram of a k-bounded
    partition, top row first: row i fills columns offset_i + 1 to
    offset_i + lam_i.

    Rows are placed bottom-up, each at the least offset, from the row
    below's on, past which at most k - lam_i placed rows reach, so every
    hook stays at most k.  The placed rows' right ends ascend, as offsets
    and lengths weakly grow upward, so it is the (k - lam_i + 1)-th largest.
    """
    lam = check_partition(lam)
    require_k_bounded(lam, k)
    offsets = []  # bottom row first
    ends = []  # right ends (offset + length) of rows already placed, ascending
    o = 0
    for length in reversed(lam):
        if k - length < len(ends):
            o = max(o, ends[length - k - 1])
        offsets.append(o)
        ends.append(o + length)
    return offsets[::-1]


def bounded_to_core(lam, k) -> tuple[int, ...]:
    """The (k+1)-core attached to a k-bounded partition: the rows of its
    k-skew diagram, left-justified."""
    lam = check_partition(lam)
    if k is None:
        return lam
    return tuple(o + length for o, length in zip(_skew_offsets(lam, k), lam))


def core_to_bounded(kappa, k) -> tuple[int, ...]:
    """Inverse of :func:`bounded_to_core`: per-row count of hook <= k
    cells, counted from the first-column hooks that :func:`is_core` reads."""
    kappa = check_partition(kappa)
    if k is None:
        return kappa
    if not is_core(kappa, k + 1):  # which raises when k < 1
        raise DomainError(f"{kappa!r} is not a {k + 1}-core")
    return _row_counts(kappa, k)


def _row_counts(kappa, k) -> tuple[int, ...]:
    """Per-row count of hook <= k cells.  Row i holds the hooks 1..b_i but
    b_i - b_j for j > i (see :func:`is_core`): min(k, b_i) less the j > i
    with b_i - b_j <= k, all among the next k, as the b strictly descend."""
    firsts = [p + len(kappa) - i for i, p in enumerate(kappa, 1)]
    return check_partition(
        min(k, b) - sum(b - c <= k for c in firsts[i + 1 : i + 1 + k]) for i, b in enumerate(firsts)
    )


@lru_cache(maxsize=None)
def k_conjugate(lam, k) -> tuple[int, ...]:
    """The involution on k-bounded partitions.  It transposes the
    (k+1)-core, and the hook <= k cells of the transposed core are the
    columns of the k-skew diagram, so it is read from the column lengths of
    that diagram, whose row offsets are closed forms: no core is built."""
    if k is None:
        return transpose(lam)
    offsets = _skew_offsets(lam, k)
    steps = [0] * (offsets[0] + lam[0] + 1 if lam else 1)  # the top row ends rightmost
    for o, length in zip(offsets, lam):
        steps[o] += 1
        steps[o + length] -= 1
    return tuple(accumulate(steps))[:-1]  # each column's height; the last is 0


def is_horizontal_strip(lam, mu) -> bool:
    """True when mu is contained in lam with at most one new cell per column."""
    if not contains(lam, mu):
        return False
    return all(
        lam[i + 1] <= (mu[i] if i < len(mu) else 0) for i in range(len(lam) - 1)
    )


def is_vertical_strip(lam, mu) -> bool:
    """True when mu is contained in lam with at most one new cell per row."""
    if not contains(lam, mu):
        return False
    return all(p - (mu[i] if i < len(mu) else 0) <= 1 for i, p in enumerate(lam))


def is_horizontal_k_strip(lam, mu, k) -> bool:
    """Horizontal strip whose k-conjugate difference is a vertical strip.

    Failed containment (of the shapes or of their k-conjugates) returns
    False rather than raising, keeping the predicate total on pairs of
    k-bounded partitions.
    """
    require_k_bounded(lam, k)
    require_k_bounded(mu, k)
    if not is_horizontal_strip(lam, mu):
        return False
    return is_vertical_strip(k_conjugate(lam, k), k_conjugate(mu, k))


def partition_covers(lam, k, last=0):
    """Covers of lam in Young's lattice whose new cell lies right of column
    last, each with that cell's column: row r may grow when row r - 1 is
    longer, and its new cell lies in column lam_r + 1.  Parts above k are
    not formed."""
    for r, part in enumerate(lam + (0,)):
        if part < last:  # this row and every row below it end left of last
            return
        if (r == 0 or lam[r - 1] > part) and (k is None or part < k):
            yield part + 1, lam[:r] + (part + 1,) + lam[r + 1 :]


def column_chains(shape, i, covers, k) -> list:
    """Shapes reached from shape by i covers whose new cells lie in strictly
    increasing columns; covers(shape, k, last) yields the (column, cover)
    pairs whose column lies right of last.

    On Young's lattice and on the composition cover order these are exactly
    the horizontal strips of size i.  Distinct columns fix the order in
    which the cells are added, so no shape is reached twice.
    """
    chains = [(shape, 0)]
    for _ in range(i):
        chains = [(grown, column) for s, last in chains for column, grown in covers(s, k, last)]
    return [s for s, _ in chains]


def require_strip_size(i, k) -> None:
    if i < 1 or (k is not None and i > k):
        raise ValueError(f"strip size {i} out of range for k={k}")


@lru_cache(maxsize=None)
def k_pieri_targets(lam, i, k) -> tuple:
    """k-bounded partitions reached from lam by a horizontal k-strip of size i:
    the horizontal strips whose k-conjugates grow by a vertical strip.  At
    k = None k-conjugation is transposition, which takes every horizontal
    strip to a vertical one, so nothing is filtered out."""
    require_strip_size(i, k)
    require_k_bounded(lam, k)
    strips = column_chains(lam, i, partition_covers, k)
    if k is not None:
        conj = k_conjugate(lam, k)
        strips = [mu for mu in strips if is_vertical_strip(k_conjugate(mu, k), conj)]
    return tuple(sorted(strips))


def dominance_leq(lam, mu) -> bool:
    """Dominance comparison of equal-size partitions: lam below (or equal to) mu."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance order compares partitions of equal size")
    total_l = total_m = 0
    for j in range(max(len(lam), len(mu))):
        total_l += lam[j] if j < len(lam) else 0
        total_m += mu[j] if j < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def dominance_lt(lam, mu) -> bool:
    return lam != mu and dominance_leq(lam, mu)


@lru_cache(maxsize=None)
def partitions_of(n, k=None) -> tuple:
    """All k-bounded partitions of n, most dominant first (descending lex).

    Each partition follows from the one before, with no recursion: its last
    part above 1 drops by one, and that part with the trailing 1s is dealt
    out again in parts of the lowered size."""
    top = n if k is None else min(n, k)
    if n == 0 or top < 1:
        return ((),) if n == 0 else ()
    lam = [top] * (n // top) + [n % top] * (n % top > 0)
    out = [tuple(lam)]
    while lam[0] > 1:
        ones = 0
        while lam[-1] == 1:
            lam.pop()
            ones += 1
        part = lam.pop()
        q, r = divmod(part + ones, part - 1)
        lam += [part - 1] * q + [r] * (r > 0)
        out.append(tuple(lam))
    return tuple(out)


def partition_counts(k=None):
    """Yield the number of k-bounded partitions of 0, 1, 2, ... in turn.

    Row m lists, for each j <= min(k, m), the partitions of m with no part
    above j: those with no part above j - 1, and those with a part j, whose
    count is read from row m - j.  Only the last k rows are kept.
    """
    rows = deque([[1]], maxlen=k)
    yield 1
    for m in count(1):
        row = [0]
        for j in range(1, m + 1 if k is None else min(k, m) + 1):
            below = rows[-j]  # row m - j, whose parts never exceed m - j
            row.append(row[-1] + below[min(j, len(below) - 1)])
        rows.append(row)
        yield row[-1]


@lru_cache(maxsize=None)
def _core_profile_index(k, size):
    """Map hook <= k row-count profiles to the (k+1)-cores of exactly size,
    each list most dominant first.

    A hook reads only its own row and the rows below it, so the rows under
    the first row of a t-core form a t-core.  Every (k+1)-core of size is
    therefore a first row a on top of a smaller core of size - a whose
    first part is at most a; only these candidates are core-tested.
    """
    candidates = [()] if size == 0 else [
        (first,) + tail
        for first in range(1, size + 1)
        for tails in _core_profile_index(k, size - first).values()
        for tail in tails
        if not tail or tail[0] <= first
    ]
    index: dict[tuple, list] = {}
    for kappa in sorted(candidates, reverse=True):
        if is_core(kappa, k + 1):
            index.setdefault(_row_counts(kappa, k), []).append(kappa)
    return {profile: tuple(cores) for profile, cores in index.items()}


def core_search_oracle(lam, k) -> tuple:
    """Exhaustive search for (k+1)-cores whose hook <= k row counts equal lam.

    Independent cross-check for :func:`bounded_to_core`, with its domain:
    ``k=None`` gives ``(lam,)`` and a part above k raises
    :class:`DomainError`.  The search window n + n(n-1)/2 covers the worst
    case, a single column at k = 1, whose core is the full staircase.
    Matches come in size order, most dominant first, from one index per
    (k, size) that holds every (k+1)-core of that size, grown from the
    cores of smaller sizes.
    """
    lam = check_partition(lam)
    if k is None:
        return (lam,)
    require_k_bounded(lam, k)
    n = sum(lam)
    return tuple(
        kappa
        for size in range(n + n * (n - 1) // 2 + 1)
        for kappa in _core_profile_index(k, size).get(lam, ())
    )
