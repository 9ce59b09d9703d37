"""Forward substitution, the slow reference for S->H and s->h.

``systems`` builds each inverse by peeling first parts off the labels;
this inverts the Pieri matrix as a plain lower unitriangular matrix
instead, so the two agreeing checks the peel rather than restating it.
``gauss_jordan.py`` in turn checks this routine on arbitrary matrices.
"""

from kschur import DomainError
from kschur.algebra import BasisMatrix, _combine_rows, packed


def forward_substitution(matrix):
    """Exact inverse of a lower unitriangular BasisMatrix.

    Row i of the inverse is e_i minus the sum over j < i of entry (i, j)
    times row j of the inverse, so every step stays in the integers.  Any
    other input raises DomainError.  Its rows are packed, as the built
    matrices' are, so the two compare row by row.
    """
    d = len(matrix.cols)
    if len(matrix.col_labels) != d:
        raise DomainError(f"cannot invert a {d}x{len(matrix.col_labels)} matrix")
    cols, vals = [], []
    for i, (row_cols, row_vals) in enumerate(zip(matrix.cols, matrix.vals)):
        # columns increase, so the diagonal 1 must be the last entry
        if not row_cols or row_cols[-1] != i or row_vals[-1] != 1:
            raise DomainError(f"matrix is not lower unitriangular at row {i}")
        row = _combine_rows([0] * i + [1], zip(row_cols[:-1], [-a for a in row_vals[:-1]]), cols, vals)
        cols.append(packed(row[0]))
        vals.append(packed(row[1]))
    return BasisMatrix(
        matrix.n, matrix.k, matrix.target_kind, matrix.source_kind, matrix.col_labels, matrix.row_labels,
        tuple(cols), tuple(vals),
    )
