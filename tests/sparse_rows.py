"""Sparse rows for the tests.

``BasisMatrix`` stores each row as parallel ``cols`` and ``vals`` rows,
each packed by ``kschur.algebra.packed`` (a signed array, or a tuple beyond
64 bits), and has no dense view, while the oracles (naive products,
Gauss-Jordan, hand-written tables) are dense lists of rows.  ``sparse``
packs them the same way, so a matrix built from them compares equal to a
computed one row by row; ``dense`` reads a matrix back entry by entry,
through ``BasisMatrix.entry``'s bisect lookups, independently of the
row texts that the CLI renders.
"""

from kschur.algebra import packed


def sparse(rows):
    """Dense rows as the cols and vals fields of a BasisMatrix."""
    return {
        "cols": tuple(packed([c for c, v in enumerate(row) if v]) for row in rows),
        "vals": tuple(packed([v for v in row if v]) for row in rows),
    }


def dense(matrix):
    """The entries of a BasisMatrix as dense lists of rows."""
    return [[matrix.entry(r, c) for c in matrix.col_labels] for r in matrix.row_labels]
