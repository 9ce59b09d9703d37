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
side table ``labels.SIDES`` and their strip targets in ``STRIPS``.

Chain counts of horizontal (k-)strips generalize Kostka numbers; both
content reading orders are exposed because the left Pieri iteration
consumes the content back to front, while tableau fillings read it front
to back.  The two agree whenever the content is palindromic.  The rows of
H->S are such counts too, and both add each strip by one step: a frontier
{shape: chains} moves to the shapes one strip above its shapes.

This is all a matrix, expand or kostka request runs; the verifiers live
in ``bases``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .algebra import BasisMatrix, LinearCombination, packed
from .compositions import bottom_aligned_contains, comp_pieri_targets
from .errors import DomainError
from .labels import SIDES, check_composition, require_k_bounded, sort_to_partition
from .partitions import contains, k_pieri_targets

# Each side's strip targets, (shape, strip size, k) -> the shapes one strip
# above, and its containment, (shape, smaller shape) -> bool.  The partition
# targets are uncached, as the builds memoize each strip by label position.
STRIPS = {
    "composition": (comp_pieri_targets, bottom_aligned_contains),
    "partition": (k_pieri_targets.__wrapped__, contains),
}

# ---------------------------------------------------------------------------
# chain counting (generalized Kostka numbers)

def _chain_content(shape, content, k, family, order):
    """The checked shape, the content in its reading order, and
    targets(gamma, size): the family's strip targets inside the shape."""
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
    reading = content if order == "paper" else content[::-1]
    targets, fits = STRIPS[family]
    return shape, reading, lambda gamma, size: [d for d in targets(gamma, size, k) if fits(shape, d)]


def kostka(shape, content, k=None, family="composition", order="paper") -> int:
    """Number of chains from the empty shape to ``shape`` adding horizontal
    (k-)strips of the content sizes, read in the given order."""
    shape, seq, targets = _chain_content(shape, content, k, family, order)
    frontier = {(): 1}
    for size in seq:
        frontier = _step(frontier, {gamma: targets(gamma, size) for gamma in frontier})
    return frontier.get(shape, 0)


def _step(frontier, strip) -> dict:
    """The chains {shape: count} of frontier, each extended by one strip:
    strip[shape] lists the shapes one strip above shape."""
    step = {}
    for gamma, count in frontier.items():
        for delta in strip[gamma]:
            step[delta] = step.get(delta, 0) + count
    return step


def kostka_chains(shape, content, k=None, family="composition", order="paper") -> tuple:
    """The chains themselves, each a tuple of shapes starting at the empty one."""
    shape, seq, targets = _chain_content(shape, content, k, family, order)
    chains = [((),)]
    for size in seq:
        chains = [chain + (delta,) for chain in chains for delta in targets(chain[-1], size)]
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
    targets, position = STRIPS[family][0], _position(family, degree + size, k)
    return tuple(tuple(map(position.__getitem__, targets(shape, size, k))) for shape in SIDES[family].labels(degree, k))


def _pieri_rows(family, n, k):
    """Row beta of H->S counts the chains of strips of the sizes of beta,
    last part first: the Pieri rule once per part.  Labels that end alike
    share those steps, so the labels are walked in the order of their
    reversed parts, holding one frontier {shape position: chains} per
    part of the current label's suffix.  Returns sparse (cols, vals), each
    row packed as it is finished."""
    labels = SIDES[family].labels(n, k)
    cols, vals = [None] * len(labels), [None] * len(labels)
    previous, stack = (), [(0, {0: 1})]  # (degree, frontier) after each suffix
    for parts, r in sorted((label[::-1], r) for r, label in enumerate(labels)):
        shared = next((j for j, (a, b) in enumerate(zip(parts, previous)) if a != b), len(previous))
        del stack[shared + 1 :]
        degree, frontier = stack[-1]
        for size in parts[shared:]:
            degree, frontier = degree + size, _step(frontier, _strip(family, k, degree, size))
            stack.append((degree, frontier))
        previous = parts
        row = sorted(frontier)
        cols[r], vals[r] = packed(row), packed(list(map(frontier.__getitem__, row)))
    return tuple(cols), tuple(vals)


def _peeled_rows(family, n, k, lower):
    """Row alpha of S->H by peeling its first part: by the Pieri rule
    S_alpha = H_first S_rest - (the S of the other strip targets of size
    first on rest), where rest is alpha without its first part and row rest
    is read from lower[|rest|], the S->H of that degree.  Each other target
    must come earlier, so that its row is already known; DomainError if
    not.  A row stays a tuple until the last label whose peel reads it is
    done, and is packed then.  Returns sparse (cols, vals)."""
    if n == 0:
        return (packed([0]),), (packed([1]),)
    side = SIDES[family]
    labels = side.labels(n, k)
    position, lifts, peels = _position(family, n, k), {}, []
    for alpha in labels:  # (first, position of rest, targets) of each label
        g = _position(family, n - alpha[0], k)[alpha[1:]]
        peels.append((alpha[0], g, _strip(family, k, n - alpha[0], alpha[0])[g]))
    last = {j: i for i, (_, _, targets) in enumerate(peels) for j in targets}
    cols, vals = [], []
    for i, (first, g, targets) in enumerate(peels):
        m = n - first
        if first not in lifts:  # column w of degree m -> the column of H_first H_w
            lifts[first] = [position[side.label_of((first,) + w)] for w in side.labels(m, k)]
        if max(targets, default=-1) != i:
            raise DomainError(f"{labels[i]!r} is not the last strip target of its peel at n={n}, k={k}")
        row = dict(zip(map(lifts[first].__getitem__, lower[m].cols[g]), lower[m].vals[g]))
        get = row.get
        for j in targets:
            if j != i:
                for c, v in zip(cols[j], vals[j]):
                    row[c] = get(c, 0) - v
                if last[j] == i:
                    cols[j], vals[j] = packed(cols[j]), packed(vals[j])
        cols.append(tuple(sorted(compress(row, row.values()))))
        vals.append(tuple(map(row.__getitem__, cols[i])))
        if last[i] == i:
            cols[i], vals[i] = packed(cols[i]), packed(vals[i])
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
