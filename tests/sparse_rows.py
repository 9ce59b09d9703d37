"""Sparse rows for the tests.

``BasisMatrix`` stores each row as parallel ``cols`` and ``vals`` tuples,
while the oracles (naive products, Gauss-Jordan, hand-written tables) are
dense lists of rows; ``kschur.algebra.dense_rows`` converts back.
"""


def sparse(rows):
    """Dense rows as the cols and vals fields of a BasisMatrix."""
    return {
        "cols": tuple(tuple(c for c, v in enumerate(row) if v) for row in rows),
        "vals": tuple(tuple(v for v in row if v) for row in rows),
    }

