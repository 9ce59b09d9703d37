"""The label layer: the basis labels of both sides, compositions and
partitions (tuples of positive ints; ``k=None`` means unbounded), with
their checks, enumeration and counts, and the side table.  ``SIDES``
describes each side once (labels, label check, label brackets, the four
basis kinds, the label of a product of complete words and the label count
of each degree), and ``SIDE_OF`` gives the side of each basis kind.  A
warm matrix request loads only this and ``errors`` besides the CLI; the
strips, cores and k-conjugation are in ``partitions`` and ``compositions``.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import lru_cache
from itertools import count
from typing import Callable, NamedTuple

from .errors import DomainError


def check_partition(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition given as any iterable of ints;
    TypeError for a part that is not one (a bool counts as 0 or 1)."""
    lam = tuple(map(operator.index, parts))
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


def format_k(k):
    """k as the CLI writes it: "inf" for unbounded k."""
    return "inf" if k is None else k


@lru_cache(maxsize=None)
def partitions_of(n, k=None) -> tuple:
    """All k-bounded partitions of n, most dominant first (descending lex).

    Each partition follows from the one before, with no recursion: its last
    part above 1 drops by one, and that part with the trailing 1s is dealt
    out again in parts of the lowered size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def check_composition(parts, k=None) -> tuple[int, ...]:
    """Validate a composition given as any iterable of ints; parts <= k when bounded."""
    alpha = tuple(map(operator.index, parts))
    if any(p < 1 for p in alpha):
        raise DomainError(f"composition parts must be positive: {alpha!r}")
    require_k_bounded(alpha, k)
    return alpha


def sort_to_partition(alpha) -> tuple[int, ...]:
    """The weakly decreasing rearrangement of the parts."""
    return tuple(sorted(alpha, reverse=True))


def compositions_of(n, k=None):
    """Yield all k-bounded compositions of n in lex order, growing each
    prefix from a stack rather than by recursion."""
    stack = [((), n)]
    while stack:
        prefix, rest = stack.pop()
        if not rest:
            yield prefix
        top = rest if k is None else min(rest, k)
        stack.extend((prefix + (first,), rest - first) for first in range(top, 0, -1))


def composition_counts(k=None):
    """Yield the number of k-bounded compositions of 0, 1, 2, ... in turn:
    after 1 for the empty composition, each is the sum of the last k counts
    (of all of them at k = None), one for each size of the first part."""
    window, count = deque(maxlen=k), 1
    while True:
        yield count
        window.append(count)
        count = sum(window)


@lru_cache(maxsize=None)
def enumerate_compositions(n, k=None) -> tuple:
    """All k-bounded compositions of n in the canonical display order:
    sorted partition descending lex (most dominant first), then the
    composition itself descending lex."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(
        sorted(
            compositions_of(n, k),
            key=lambda a: (sort_to_partition(a), a),
            reverse=True,
        )
    )


# ---------------------------------------------------------------------------
# the two sides: compositions and k-bounded partitions

class Side(NamedTuple):
    labels: Callable  # (n, k) -> the basis labels in Pieri (unitriangular) order
    check: Callable  # validates and canonicalizes a label
    brackets: str  # the opening and closing bracket of a written label
    kinds: tuple  # (complete, Schur-like, dual, monomial)
    label_of: Callable  # parts, in product order -> the label of that complete word
    counts: Callable  # k -> the number of labels of each degree 0, 1, 2, ... in turn


SIDES = {
    "composition": Side(
        enumerate_compositions, check_composition, "[]", ("H", "S", "QS", "M"), tuple, composition_counts
    ),
    "partition": Side(
        partitions_of, check_partition, "()", ("h", "s", "dual-s", "m"), sort_to_partition, partition_counts
    ),
}

# The side of each basis kind (see :mod:`kschur.algebra`).
SIDE_OF = {kind: side for side in SIDES.values() for kind in side.kinds}
