"""Sparse rows for the tests.

``BasisMatrix`` stores each row as parallel ``cols`` and ``vals`` rows,
each packed by ``kschur.algebra.packed`` (a signed array, or a tuple beyond
64 bits), while the oracles (naive products, Gauss-Jordan, hand-written
tables) are dense lists of rows.  ``sparse`` packs them the same way, so a
matrix built from them compares equal to a computed one row by row;
``kschur.algebra.dense_rows`` converts back.
"""

from kschur.algebra import packed


def sparse(rows):
    """Dense rows as the cols and vals fields of a BasisMatrix."""
    return {
        "cols": tuple(packed([c for c, v in enumerate(row) if v]) for row in rows),
        "vals": tuple(packed([v for v in row if v]) for row in rows),
    }

