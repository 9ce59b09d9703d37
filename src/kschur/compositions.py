"""Compositions, the left cover order and horizontal composition strips.

A composition is a plain tuple of positive integers, order significant;
row 1 (the first part) is drawn topmost.  The cover order grows a
composition on the left: either prepend a part equal to 1, or bump the
leftmost part of a given size m up to m + 1.  A smaller composition sits
inside a larger one bottom-aligned, i.e. aligned with its last rows.

The horizontal-strip notion on this poset is stricter than "distinct
columns".  Because a bump may only touch the *leftmost* part of its size,
a one-cell growth step is blocked whenever an equal-length row lies
higher up.  A skew shape is a horizontal strip exactly when its cells
lie in distinct columns and, taken in increasing column order, can be
added one at a time as covers; whether they can is read from the row
lengths alone (:func:`is_horizontal_comp_strip`).

Pieri targets are generated rather than filtered: they are the cover
chains whose new cells lie in strictly increasing columns
(:func:`partitions.column_chains`), and at bounded k the k-condition on
their sorted shapes is read from the partition side's
:func:`k_pieri_targets`.

The module ends with the side table: ``SIDES`` describes the composition
side and the k-bounded partition side once each (labels, Pieri targets,
containment, label check, label brackets, the four basis kinds, the
label of a product of complete words and the label count of each
degree), and
``SIDE_OF`` gives the side of each basis kind.  Every layer that must
tell the two sides apart reads them.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import lru_cache
from itertools import groupby
from typing import Callable, NamedTuple

from .errors import DomainError
from .partitions import (
    check_partition,
    column_chains,
    contains,
    is_horizontal_k_strip,
    k_pieri_targets,
    partition_counts,
    partitions_of,
    require_k_bounded,
    require_strip_size,
)


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


def composition_covers(beta, k, last=0):
    """Covers of beta whose new cell lies right of column last, each with
    that cell's column: prepending a 1 adds a cell in column 1, and bumping
    the leftmost part of some size m to m + 1 adds one in column m + 1.
    Parts above k are not formed."""
    if last == 0 and (k is None or k >= 1):
        yield 1, (1,) + beta
    seen = set()  # every part, so that only the leftmost of each size is bumped
    for pos, part in enumerate(beta):
        if part >= last and part not in seen and (k is None or part < k):
            yield part + 1, beta[:pos] + (part + 1,) + beta[pos + 1 :]
        seen.add(part)


def covers_up(beta, bound=None) -> tuple:
    """Compositions covering beta, sorted, with no part above bound."""
    return tuple(sorted(alpha for _, alpha in composition_covers(beta, bound)))


def bottom_aligned_contains(alpha, beta) -> bool:
    """True when beta fits inside alpha aligned with alpha's last rows."""
    shift = len(alpha) - len(beta)
    if shift < 0:
        return False
    return all(b <= alpha[shift + j] for j, b in enumerate(beta))


def is_horizontal_comp_strip(alpha, beta) -> bool:
    """True when alpha/beta is a horizontal strip of the cover order: its
    cells lie in distinct columns and, added in increasing column order,
    each is a cover.  Containment failure returns False, not an error.

    Decided from the row lengths alone.  Pad beta with zeros on top to
    ``old``.  When column c is reached, a higher row q has length c - 1
    exactly when old_q <= c - 1 <= alpha_q, and a cell in column c extends
    row r by a cover exactly when no higher row then has length c - 1
    (that row would be the leftmost part of its size and take the bump).
    So a growing row's new cells are covers exactly when every higher row
    ends left of old_r or starts at or right of alpha_r.  Distinct columns
    follow: a higher row with a new cell in one of row r's columns fails
    both.
    So does the rule that a column-1 cell only opens the one new top row:
    a new row (old 0) below another fails both too.
    """
    if not bottom_aligned_contains(alpha, beta):
        return False
    old = (0,) * (len(alpha) - len(beta)) + tuple(beta)
    return all(alpha[q] < o or a <= old[q] for r, (o, a) in enumerate(zip(old, alpha)) if o < a for q in range(r))


def is_horizontal_k_comp_strip(alpha, beta, k) -> bool:
    """Horizontal composition strip whose sorted shapes differ by a
    horizontal k-strip (which checks the bound)."""
    sorted_strip = is_horizontal_k_strip(sort_to_partition(alpha), sort_to_partition(beta), k)
    return sorted_strip and is_horizontal_comp_strip(alpha, beta)


def comp_pieri_targets(beta, i, k=None) -> tuple:
    """k-bounded compositions reached from beta by a horizontal
    k-composition strip of size i: the column chains of covers whose sorted
    shape is a k-Pieri target of the sorted beta (which checks i and k).

    At k = None every chain passes: column c of a composition holds as many
    cells as column c of its sorted shape, so a chain's new cells, one per
    column, sort to a horizontal strip, and that is all the check asks."""
    if k is None:
        require_strip_size(i, k)
        return tuple(sorted(column_chains(beta, i, composition_covers, k)))
    sorted_targets = k_pieri_targets(sort_to_partition(beta), i, k)
    strips = column_chains(beta, i, composition_covers, k)
    return tuple(sorted(a for a in strips if sort_to_partition(a) in sorted_targets))


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


@lru_cache(maxsize=None)
def rearrangements(n, k=None) -> dict:
    """The k-bounded compositions of n grouped by sorted parts: each partition
    maps to its rearrangements in label order; one with none is absent."""
    labels = enumerate_compositions(n, k)
    return {lam: tuple(group) for lam, group in groupby(labels, sort_to_partition)}


# ---------------------------------------------------------------------------
# the two sides: compositions and k-bounded partitions

class Side(NamedTuple):
    labels: Callable  # (n, k) -> the basis labels in Pieri (unitriangular) order
    targets: Callable  # (shape, strip size, k) -> shapes one strip above
    fits: Callable  # (shape, smaller shape) -> containment
    check: Callable  # validates and canonicalizes a label
    brackets: str  # the opening and closing bracket of a written label
    kinds: tuple  # (complete, Schur-like, dual, monomial)
    label_of: Callable  # parts, in product order -> the label of that complete word
    counts: Callable  # k -> the number of labels of each degree 0, 1, 2, ... in turn


SIDES = {
    "composition": Side(
        enumerate_compositions, comp_pieri_targets, bottom_aligned_contains, check_composition,
        "[]", ("H", "S", "QS", "M"), tuple, composition_counts,
    ),
    # uncached, as the builds memoize each strip by label position
    "partition": Side(
        partitions_of, k_pieri_targets.__wrapped__, contains, check_partition, "()", ("h", "s", "dual-s", "m"),
        sort_to_partition, partition_counts,
    ),
}

# The side of each basis kind (see :mod:`kschur.algebra`).
SIDE_OF = {kind: side for side in SIDES.values() for kind in side.kinds}
