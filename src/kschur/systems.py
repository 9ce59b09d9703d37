"""Graded systems of Schur-like dual bases, built from the one-strip
Pieri rule H_i S_gamma = sum of S_delta over the strip targets delta, and
the strip-chain counts behind them.

For one graded component (degree n, bound k) a graded system holds four
changes of basis, each built when first asked for.  Row beta of H->S
applies the rule once per part, last part first; labels that end alike
share those steps.  Row alpha of S->H peels the first part:
S_alpha = H_{alpha_1} S_rest minus the S of the other targets, read from
the S->H of lower degree.  At k = inf on partitions the other targets come
earlier in label order by dominance; at finite k that ordering is observed
and checked at run time, not proved.  The transposes give the monomial
expansion of the dual QS basis and its inverse.  The partition side is the
same construction over k-bounded partitions, giving k-Schur functions in h
and dual k-Schur functions in m.  Both are built from their entry in the
side table ``compositions.SIDES``.

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
from .compositions import SIDES, check_composition, sort_to_partition
from .errors import DomainError
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

@lru_cache(maxsize=None)
def _position(family, n, k) -> dict:
    """Each label of degree n -> its position in the labels."""
    return {label: j for j, label in enumerate(SIDES[family].labels(n, k))}


@lru_cache(maxsize=None)
def _strip(family, k, degree, size) -> tuple:
    """The strip of one size on label positions: entry g lists the
    positions, among the labels of degree + size, of the strip targets of
    label g of the given degree."""
    side = SIDES[family]
    position = _position(family, degree + size, k)
    return tuple(tuple(map(position.__getitem__, side.targets(shape, size, k))) for shape in side.labels(degree, k))


def _pieri_rows(family, n, k):
    """Row beta of H->S counts the chains of strips of the sizes of beta,
    last part first: the Pieri rule once per part.  Labels that end alike
    share those steps, so the labels are walked in the order of their
    reversed parts, holding one frontier {shape position: chains} per
    part of the current label's suffix.  Returns sparse (cols, vals)."""
    labels = SIDES[family].labels(n, k)
    cols, vals = [None] * len(labels), [None] * len(labels)
    previous, stack = (), [(0, {0: 1})]  # (degree, frontier) after each suffix
    for parts, r in sorted((label[::-1], r) for r, label in enumerate(labels)):
        shared = next((j for j, (a, b) in enumerate(zip(parts, previous)) if a != b), len(previous))
        del stack[shared + 1 :]
        degree, frontier = stack[-1]
        for size in parts[shared:]:
            strip, step = _strip(family, k, degree, size), {}
            for g, count in frontier.items():
                for d in strip[g]:
                    step[d] = step.get(d, 0) + count
            degree, frontier = degree + size, step
            stack.append((degree, frontier))
        previous = parts
        cols[r] = tuple(sorted(frontier))
        vals[r] = tuple(map(frontier.__getitem__, cols[r]))
    return tuple(cols), tuple(vals)


def _peeled_rows(family, n, k, lower):
    """Row alpha of S->H by peeling its first part: by the Pieri rule
    S_alpha = H_first S_rest - (the S of the other strip targets of size
    first on rest), where rest is alpha without its first part and row rest
    is read from lower[|rest|], the S->H of that degree.  Each other target
    must come earlier, so that its row is already known; DomainError if
    not.  Returns sparse (cols, vals)."""
    if n == 0:
        return ((0,),), ((1,),)
    side = SIDES[family]
    labels = side.labels(n, k)
    position, lifts = _position(family, n, k), {}
    cols, vals = [], []
    for i, alpha in enumerate(labels):
        first, m = alpha[0], n - alpha[0]
        if first not in lifts:  # column w of degree m -> the column of H_first H_w
            lifts[first] = [position[side.label_of((first,) + w)] for w in side.labels(m, k)]
        g = _position(family, m, k)[alpha[1:]]
        targets = _strip(family, k, m, first)[g]
        if max(targets, default=-1) != i:
            raise DomainError(f"{alpha!r} is not the last strip target of its peel at n={n}, k={k}")
        row = dict(zip(map(lifts[first].__getitem__, lower[m].cols[g]), lower[m].vals[g]))
        for j in targets:
            if j != i:
                for c, v in zip(cols[j], vals[j]):
                    row[c] = row.get(c, 0) - v
        cols.append(tuple(sorted(c for c, v in row.items() if v)))
        vals.append(tuple(map(row.__getitem__, cols[-1])))
    return tuple(cols), tuple(vals)


class GradedSystem:
    """One graded component (degree n, bound k) of one side.

    Each of the four changes of basis is built on first use, at most once:
    the Pieri matrix (complete -> Schur-like) by the strip walk, its
    inverse (Schur-like -> complete) by peeling first parts against the
    inverses of lower degree, and their transposes, dual -> monomial and
    monomial -> dual, by the duality of the two pairs of bases.
    """

    # bases and perfbench/replay.py read these three names.
    pieri = property(lambda self: self.matrix(*SIDES[self.family].kinds[:2]))
    S_to_H = property(lambda self: self.matrix("S", "H"))
    s_to_h = property(lambda self: self.matrix("s", "h"))

    def __init__(self, family, n, k):
        self.family, self.n, self.k = family, n, k
        self.labels = SIDES[family].labels(n, k)
        self._matrices = {}

    def matrix(self, source, target) -> BasisMatrix:
        """The change of basis from the source kind to the target kind;
        ValueError for a pair that is not one of the four of this side."""
        if (source, target) not in self._matrices:
            complete, schur, dual, monomial = SIDES[self.family].kinds
            if (source, target) == (complete, schur):
                derived = self._square(source, target, _pieri_rows(self.family, self.n, self.k))
            elif (source, target) == (schur, complete):
                # lowest degree first, so that no build waits on a deeper one
                build = _BUILDERS[self.family]
                lower = [build(m, self.k).matrix(schur, complete) for m in range(self.n)]
                derived = self._square(source, target, _peeled_rows(self.family, self.n, self.k, lower))
            elif (source, target) == (dual, monomial):
                derived = self.matrix(complete, schur).transposed(dual, monomial)
            elif (source, target) == (monomial, dual):
                derived = self.matrix(schur, complete).transposed(monomial, dual)
            else:
                raise ValueError(f"no expansion from {source!r} to {target!r}")
            self._matrices[source, target] = derived
        return self._matrices[source, target]

    def _square(self, source, target, rows) -> BasisMatrix:
        cols, vals = rows
        return BasisMatrix(self.n, self.k, source, target, self.labels, self.labels, cols, vals)

    def expand(self, kind, index, target) -> LinearCombination:
        """The basis element kind[index] written in the target kind."""
        matrix = self.matrix(kind, target)  # an unsupported pair is refused first
        return matrix.expand(LinearCombination.single(kind, index, self.k))


@lru_cache(maxsize=None)
def build_schur_system(n, k=None) -> GradedSystem:
    """Composition side: H, the Schur-like S, the dual QS and the monomial M."""
    return GradedSystem("composition", n, k)


@lru_cache(maxsize=None)
def build_kschur_system(n, k=None) -> GradedSystem:
    """Partition side: h, the k-Schur s, the dual k-Schur and the monomial m."""
    return GradedSystem("partition", n, k)


_BUILDERS = {"composition": build_schur_system, "partition": build_kschur_system}
