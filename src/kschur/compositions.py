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

The labels themselves, their check and the side table ``SIDES`` live in
:mod:`kschur.labels`; the strip targets of both sides are read through
``systems.STRIPS``.
"""

from __future__ import annotations

from itertools import groupby

from .labels import check_composition, enumerate_compositions, sort_to_partition
from .partitions import column_chains, is_horizontal_k_strip, k_pieri_targets, require_strip_size


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
    column, sort to a horizontal strip, and that is all the check asks; beta
    is checked there, as k_pieri_targets checks the sorted beta otherwise."""
    if k is None:
        require_strip_size(i, k)
        return tuple(sorted(column_chains(check_composition(beta), i, composition_covers, k)))
    sorted_targets = k_pieri_targets(sort_to_partition(beta), i, k)
    strips = column_chains(beta, i, composition_covers, k)
    return tuple(sorted(a for a in strips if sort_to_partition(a) in sorted_targets))


def rearrangements(n, k=None) -> dict:
    """The k-bounded compositions of n grouped by sorted parts: each partition
    maps to its rearrangements in label order; one with none is absent."""
    labels = enumerate_compositions(n, k)
    return {lam: tuple(group) for lam, group in groupby(labels, sort_to_partition)}
