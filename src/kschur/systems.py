"""Graded systems of Schur-like dual bases, built by iterated Pieri
expansion, and the strip-chain counts behind them.

For one graded component (degree n, bound k) a graded system holds the
expansion of each H word in the Schur-like S basis (obtained by running
the Pieri rule once per part, last part first) and derives the other
changes of basis from it: the exact inverse, the transpose, which is the
monomial expansion of the dual QS basis, and the transpose of the
inverse.  The partition side is the same construction over k-bounded
partitions, giving k-Schur functions in h and dual k-Schur functions in m.
Both are built from their entry in the side table ``compositions.SIDES``.

Chain counts of horizontal (k-)strips generalize Kostka numbers; both
content reading orders are exposed because the left Pieri iteration
consumes the content back to front, while tableau fillings read it front
to back.  The two agree whenever the content is palindromic.

This is all a matrix, expand or kostka request runs; the verifiers live
in ``bases``.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import BasisMatrix, LinearCombination
from .compositions import SIDE_OF, SIDES, check_composition, sort_to_partition
from .partitions import require_k_bounded

# ---------------------------------------------------------------------------
# chain counting (generalized Kostka numbers)

def _chain_content(shape, content, k, family, order):
    if family not in SIDES:
        raise ValueError(f"unknown family {family!r}")
    if order not in ("paper", "pieri"):
        raise ValueError(f"unknown order convention {order!r}")
    shape = SIDES[family].check(shape)
    content = check_composition(content)
    if sum(shape) != sum(content):
        raise ValueError(f"size mismatch: |{shape!r}| != |{content!r}|")
    require_k_bounded(sort_to_partition(shape), k)
    require_k_bounded(content, k)
    return shape, content if order == "paper" else content[::-1]


def kostka(shape, content, k=None, family="composition", order="paper") -> int:
    """Number of chains from the empty shape to ``shape`` adding horizontal
    (k-)strips of the content sizes, read in the given order."""
    shape, seq = _chain_content(shape, content, k, family, order)
    return _chain_counts(seq, k, _targets_inside(shape, family)).get(shape, 0)


def _chain_counts(seq, k, targets) -> dict:
    """Chains from the empty shape adding one strip per size in seq, in
    order, through targets(shape, size, k): {end shape: number of chains}."""
    frontier = {(): 1}
    for size in seq:
        step: dict = {}
        for gamma, count in frontier.items():
            for delta in targets(gamma, size, k):
                step[delta] = step.get(delta, 0) + count
        frontier = step
    return frontier


def _targets_inside(shape, family):
    """The family's strip targets, pruned to those that fit inside shape."""
    targets, fits = SIDES[family].targets, SIDES[family].fits
    return lambda gamma, size, k: [d for d in targets(gamma, size, k) if fits(shape, d)]


def kostka_chains(shape, content, k=None, family="composition", order="paper") -> tuple:
    """The chains themselves, each a tuple of shapes starting at the empty one."""
    shape, seq = _chain_content(shape, content, k, family, order)
    targets = _targets_inside(shape, family)
    chains = [((),)]
    for size in seq:
        chains = [chain + (delta,) for chain in chains for delta in targets(chain[-1], size, k)]
    return tuple(chain for chain in chains if chain[-1] == shape)


# ---------------------------------------------------------------------------
# graded systems

def _pieri_rows(labels, k, targets):
    """Row beta counts the strip chains of content beta read back to front:
    the Pieri rule applied once per part, last part first.  Returns the
    rows as sparse (cols, vals), each row sorted by column."""
    position = {label: j for j, label in enumerate(labels)}
    cols, vals = [], []
    for beta in labels:
        counts = _chain_counts(reversed(beta), k, targets)
        by_col = dict(zip(map(position.__getitem__, counts), counts.values()))
        row_cols = tuple(sorted(by_col))  # ints sort faster than (col, count) pairs
        cols.append(row_cols)
        vals.append(tuple(map(by_col.__getitem__, row_cols)))
    return tuple(cols), tuple(vals)


class GradedSystem:
    """One graded component (degree n, bound k) of either side.

    The Pieri matrix expands the complete kind in the Schur-like kind.
    The other three changes of basis are derived from it: its inverse, its
    transpose (dual -> monomial, by duality of the two pairs of bases) and
    the transpose of the inverse (monomial -> dual).  Each is derived at
    most once per system.
    """

    # perfbench/replay.py stages the inverse through these two names.
    S_to_H = property(lambda self: self.matrix("S", "H"))
    s_to_h = property(lambda self: self.matrix("s", "h"))

    def __init__(self, n, k, labels, pieri):
        self.n, self.k, self.labels, self.pieri = n, k, labels, pieri
        self._matrices = {(pieri.source_kind, pieri.target_kind): pieri}

    def matrix(self, source, target) -> BasisMatrix:
        """The change of basis from the source kind to the target kind;
        ValueError for a pair that is not one of the four of this side."""
        if (source, target) not in self._matrices:
            complete, schur, dual, monomial = SIDE_OF[self.pieri.source_kind].kinds
            if (source, target) == (schur, complete):
                derived = self.pieri.inverse()
            elif (source, target) == (dual, monomial):
                derived = self.pieri.transposed(dual, monomial)
            elif (source, target) == (monomial, dual):
                derived = self.matrix(schur, complete).transposed(monomial, dual)
            else:
                raise ValueError(f"no expansion from {source!r} to {target!r}")
            self._matrices[source, target] = derived
        return self._matrices[source, target]

    def expand(self, kind, index, target) -> LinearCombination:
        """The basis element kind[index] written in the target kind."""
        matrix = self.matrix(kind, target)  # an unsupported pair is refused first
        return matrix.expand(LinearCombination.single(kind, index, self.k))


def _build_system(family, n, k) -> GradedSystem:
    side = SIDES[family]
    labels = side.labels(n, k)
    complete, schur, _, _ = side.kinds
    cols, vals = _pieri_rows(labels, k, side.targets)
    matrix = BasisMatrix(
        n=n, k=k, source_kind=complete, target_kind=schur,
        row_labels=labels, col_labels=labels, cols=cols, vals=vals,
    )
    return GradedSystem(n=n, k=k, labels=labels, pieri=matrix)


@lru_cache(maxsize=None)
def build_schur_system(n, k=None) -> GradedSystem:
    """Composition side: H, the Schur-like S, the dual QS and the monomial M."""
    return _build_system("composition", n, k)


@lru_cache(maxsize=None)
def build_kschur_system(n, k=None) -> GradedSystem:
    """Partition side: h, the k-Schur s, the dual k-Schur and the monomial m."""
    return _build_system("partition", n, k)
