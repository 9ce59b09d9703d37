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

from functools import lru_cache

from .errors import DomainError

# The basis kinds indexed by partitions (see :mod:`kschur.algebra`).
PARTITION_KINDS = frozenset({"h", "m", "s", "dual-s"})


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


def bounded_to_core(lam, k) -> tuple[int, ...]:
    """The (k+1)-core attached to a k-bounded partition.

    Rows are placed bottom-up as a skew diagram, each row pushed right by
    the least offset keeping every hook length in the partial diagram at
    most k; left-justifying the rows then gives the core.  Within a row the
    leftmost cell realizes the largest hook, and that hook only shrinks as
    the row moves right, so each offset is found by a short forward scan.
    """
    if k is None:
        return lam
    lam = check_partition(lam)
    require_k_bounded(lam, k)
    offsets = []  # bottom row first
    ends = []  # right ends (offset + length) of rows already placed
    o = 0
    for length in reversed(lam):
        while length + sum(1 for e in ends if e > o) > k:
            o += 1
        offsets.append(o)
        ends.append(o + length)
    return tuple(o + length for o, length in zip(reversed(offsets), lam))


def core_to_bounded(kappa, k) -> tuple[int, ...]:
    """Inverse of :func:`bounded_to_core`: per-row count of hook <= k cells."""
    kappa = check_partition(kappa)
    if k is None:
        return kappa
    if k < 1:
        raise DomainError("core parameter must be at least 2")
    hooks = hook_lengths(kappa)
    if k + 1 in hooks.values():
        raise DomainError(f"{kappa!r} is not a {k + 1}-core")
    counts = [
        sum(1 for c in range(1, kappa[r - 1] + 1) if hooks[(r, c)] <= k)
        for r in range(1, len(kappa) + 1)
    ]
    while counts and counts[-1] == 0:
        counts.pop()
    return check_partition(counts)


@lru_cache(maxsize=None)
def k_conjugate(lam, k) -> tuple[int, ...]:
    """The involution on k-bounded partitions: transpose the (k+1)-core."""
    if k is None:
        return transpose(lam)
    return core_to_bounded(transpose(bounded_to_core(lam, k)), k)


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


def partition_covers(lam, k):
    """Covers of lam in Young's lattice, each with the column of its new
    cell: row r may grow when row r - 1 is longer, and its new cell lies in
    column lam_r + 1.  Parts above k are not formed."""
    for r, part in enumerate(lam + (0,)):
        if (r == 0 or lam[r - 1] > part) and (k is None or part < k):
            yield part + 1, lam[:r] + (part + 1,) + lam[r + 1 :]


def column_chains(shape, i, covers, k) -> list:
    """Shapes reached from shape by i covers whose new cells lie in strictly
    increasing columns; covers(shape, k) yields (column, cover) pairs.

    On Young's lattice and on the composition cover order these are exactly
    the horizontal strips of size i.  Distinct columns fix the order in
    which the cells are added, so no shape is reached twice.
    """
    chains = [(shape, 0)]
    for _ in range(i):
        chains = [
            (grown, column)
            for s, last in chains
            for column, grown in covers(s, k)
            if column > last
        ]
    return [s for s, _ in chains]


@lru_cache(maxsize=None)
def k_pieri_targets(lam, i, k) -> tuple:
    """k-bounded partitions reached from lam by a horizontal k-strip of size i:
    the horizontal strips whose k-conjugates grow by a vertical strip."""
    if i < 1 or (k is not None and i > k):
        raise ValueError(f"strip size {i} out of range for k={k}")
    require_k_bounded(lam, k)
    conj = k_conjugate(lam, k)
    strips = column_chains(lam, i, partition_covers, k)
    return tuple(
        sorted(mu for mu in strips if is_vertical_strip(k_conjugate(mu, k), conj))
    )


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
    """All k-bounded partitions of n, most dominant first (descending lex)."""
    if n == 0:
        return ((),)
    out = []
    top = n if k is None else min(n, k)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


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
            index.setdefault(core_to_bounded(kappa, k), []).append(kappa)
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
