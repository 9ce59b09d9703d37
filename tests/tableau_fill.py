"""Cell-by-cell tableau filling, the slow reference for ``bases.ssyt_count``.

``ssyt_count`` peels one horizontal strip per content part; this fills the
Young diagram one cell at a time in reading order instead, so the two
agreeing checks the peel rather than restating it.
"""

from kschur.labels import check_partition


def tableau_fill(shape, content) -> int:
    """Count fillings of the Young diagram with content[i] copies of i + 1,
    rows weakly increasing, columns strictly increasing.  Plain backtracking,
    independent of the strip machinery."""
    shape = check_partition(shape)
    if sum(shape) != sum(content):
        return 0
    remaining = list(content)
    rows = [[0] * length for length in shape]

    def rec(r, c):
        if r == len(shape):
            return 1
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        total = 0
        lo = rows[r][c - 1] if c else 1
        for v in range(lo, len(remaining) + 1):
            if not remaining[v - 1]:
                continue
            if r and len(rows[r - 1]) > c and rows[r - 1][c] >= v:
                continue
            rows[r][c] = v
            remaining[v - 1] -= 1
            total += rec(nr, nc)
            remaining[v - 1] += 1
            rows[r][c] = 0
        return total

    return rec(0, 0)
