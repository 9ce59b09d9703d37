"""k-conjugation by transposing the (k+1)-core, the slow reference for
``partitions.k_conjugate``.

``k_conjugate`` reads the column lengths of the k-skew diagram; this
builds the whole core, transposes it and counts the hook <= k cells of
each row, so the two agreeing checks the column reading rather than
restating it.
"""

from kschur.partitions import bounded_to_core, core_to_bounded, transpose


def core_transpose_conjugate(lam, k):
    """omega_k(lam) as the hook <= k row counts of the transposed core."""
    if k is None:
        return transpose(lam)
    return core_to_bounded(transpose(bounded_to_core(lam, k)), k)
