"""The k-skew offsets and the core's row counts found by search, the slow
references for ``partitions._skew_offsets`` and ``partitions.core_to_bounded``.

The package places each row of the k-skew diagram at the (k - lam_i + 1)-th
largest right end below it, and counts the hook <= k cells of each core row
from the first-column hooks.  These move each row right one column at a
time, recounting the rows below at every step, and read every cell's hook
from ``hook_lengths``, so the closed forms are checked, not restated.
"""

from kschur.partitions import hook_lengths, transpose


def scan_skew_offsets(lam, k):
    """The offset of each row of the k-skew diagram, top row first: rows
    are placed bottom-up, each moved right from the row below's offset
    until at most k - lam_i of the placed rows reach past it."""
    offsets = []  # bottom row first
    ends = []  # right ends of the rows already placed
    o = 0
    for length in reversed(lam):
        while length + sum(1 for e in ends if e > o) > k:
            o += 1
        offsets.append(o)
        ends.append(o + length)
    return offsets[::-1]


def scan_bounded_to_core(lam, k):
    """The (k+1)-core of a k-bounded partition from the scanned offsets."""
    return tuple(o + length for o, length in zip(scan_skew_offsets(lam, k), lam))


def hook_row_counts(kappa, k):
    """Per-row count of the hook <= k cells, read from every cell's hook."""
    hooks = hook_lengths(kappa)
    counts = [
        sum(1 for c in range(1, kappa[r - 1] + 1) if hooks[(r, c)] <= k)
        for r in range(1, len(kappa) + 1)
    ]
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def scan_k_conjugate(lam, k):
    """omega_k(lam) as the hook <= k row counts of the transposed core."""
    return hook_row_counts(transpose(scan_bounded_to_core(lam, k)), k)
