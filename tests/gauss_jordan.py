"""Slow reference inverse for the tests.

A general Gauss-Jordan over Fraction, independent of the integer forward
substitution in ``forward_substitution.py``: it assumes no triangular
shape, so the two agreeing checks that routine rather than restating it.
"""

from fractions import Fraction

from kschur import DomainError


def invert_integer_matrix(rows):
    """Exact inverse of an integer matrix, required to be integral.

    Gauss-Jordan over Fraction; a singular matrix or a non-integer inverse
    raises, since either signals a combinatorial bug upstream.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    work = [[Fraction(v) for v in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
                inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    result = []
    for row in inv:
        if any(v.denominator != 1 for v in row):
            raise DomainError("inverse is not integral")
        result.append([int(v) for v in row])
    return result
