"""Schur-like dual bases built by iterated Pieri expansion.

For one graded component (degree n, bound k) a graded system holds the
expansion of each H word in the Schur-like S basis (obtained by running
the Pieri rule once per part, last part first) and derives the other
changes of basis from it: the exact inverse, the transpose, which is the
monomial expansion of the dual QS basis, and the transpose of the
inverse.  The partition side is the same construction over k-bounded
partitions, giving k-Schur functions in h and dual k-Schur functions in m.

Chain counts of horizontal (k-)strips generalize Kostka numbers; both
content reading orders are exposed because the left Pieri iteration
consumes the content back to front, while tableau fillings read it front
to back.  The two agree whenever the content is palindromic, and the
conformance report lists every pair where they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from . import compositions as comp
from . import partitions as part
from .algebra import BasisMatrix, H_product, LinearCombination, chi_project
from .errors import DomainError
from .reference_tables import REFERENCE_MATRICES

# ---------------------------------------------------------------------------
# the two sides: compositions and k-bounded partitions

class _Family(NamedTuple):
    labels: Callable  # (n, k) -> the basis labels in Pieri (unitriangular) order
    targets: Callable  # (shape, strip size, k) -> shapes one strip above
    fits: Callable  # (shape, smaller shape) -> containment
    check: Callable  # validates and canonicalizes a shape
    kinds: tuple  # (complete, Schur-like, dual, monomial)


_FAMILIES = {
    "composition": _Family(
        comp.enumerate_compositions, comp.comp_pieri_targets,
        comp.bottom_aligned_contains, comp.check_composition, ("H", "S", "QS", "M"),
    ),
    "partition": _Family(
        part.partitions_of, part.k_pieri_targets,
        part.contains, part.check_partition, ("h", "s", "dual-s", "m"),
    ),
}


# ---------------------------------------------------------------------------
# chain counting (generalized Kostka numbers)

def _chain_content(shape, content, k, family, order):
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if order not in ("paper", "pieri"):
        raise ValueError(f"unknown order convention {order!r}")
    shape = _FAMILIES[family].check(shape)
    content = comp.check_composition(content)
    if sum(shape) != sum(content):
        raise ValueError(f"size mismatch: |{shape!r}| != |{content!r}|")
    part.require_k_bounded(comp.sort_to_partition(shape), k)
    part.require_k_bounded(content, k)
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
    targets, fits = _FAMILIES[family].targets, _FAMILIES[family].fits
    return lambda gamma, size, k: [d for d in targets(gamma, size, k) if fits(shape, d)]


def kostka_chains(shape, content, k=None, family="composition", order="paper") -> tuple:
    """The chains themselves, each a tuple of shapes starting at the empty one."""
    shape, seq = _chain_content(shape, content, k, family, order)
    targets = _targets_inside(shape, family)
    chains = [((),)]
    for size in seq:
        chains = [chain + (delta,) for chain in chains for delta in targets(chain[-1], size, k)]
    return tuple(chain for chain in chains if chain[-1] == shape)


def order_convention_report(max_n, ks) -> dict:
    """Compare the two content reading orders on all composition pairs.

    Returns palindromic-content agreement (provable, checked anyway) and
    the list of diverging (k, shape, content, paper count, pieri count).
    """
    divergences = []
    palindromic_ok = True
    for k in ks:
        for n in range(max_n + 1):
            labels = comp.enumerate_compositions(n, k)
            for shape in labels:
                for content in labels:
                    a = kostka(shape, content, k, "composition", "paper")
                    b = kostka(shape, content, k, "composition", "pieri")
                    if a != b:
                        divergences.append((k, shape, content, a, b))
                        if content == content[::-1]:
                            palindromic_ok = False
    return {"palindromic_ok": palindromic_ok, "divergences": divergences}


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


@dataclass(frozen=True)
class GradedSystem:
    """One graded component (degree n, bound k) of either side.

    The Pieri matrix expands the complete kind in the Schur-like kind.
    The other three changes of basis are derived from it: its inverse, its
    transpose (dual -> monomial, by duality of the two pairs of bases) and
    the transpose of the inverse (monomial -> dual).  Each is derived at
    most once per system.
    """

    n: int
    k: int | None
    labels: tuple
    pieri: BasisMatrix

    # perfbench/replay.py stages the inverse through these two names.
    S_to_H = property(lambda self: self.matrix("S", "H"))
    s_to_h = property(lambda self: self.matrix("s", "h"))

    @cached_property
    def _matrices(self) -> dict:
        return {(self.pieri.source_kind, self.pieri.target_kind): self.pieri}

    def matrix(self, source, target) -> BasisMatrix:
        """The change of basis from the source kind to the target kind;
        ValueError for a pair that is not one of the four of this side."""
        if (source, target) not in self._matrices:
            complete, schur, dual, monomial = next(
                f.kinds for f in _FAMILIES.values() if f.kinds[0] == self.pieri.source_kind
            )
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
    side = _FAMILIES[family]
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


def monomial_to_M(combo: LinearCombination) -> LinearCombination:
    """Identify m with the sum of M over all rearrangements of the index
    (its k-bounded compositions, read from ``compositions.rearrangements``)."""
    if combo.kind != "m":
        raise DomainError(f"expected kind 'm', got {combo.kind!r}")
    out = {}
    for mu, coeff in combo.terms():
        for alpha in comp.rearrangements(sum(mu), combo.k).get(mu, ()):
            out[alpha] = out.get(alpha, 0) + coeff
    return LinearCombination("M", combo.k, out)


# ---------------------------------------------------------------------------
# independent oracle: brute-force semistandard Young tableaux

def ssyt_count(shape, content) -> int:
    """Count fillings of the Young diagram with content[i] copies of i + 1,
    rows weakly increasing, columns strictly increasing.  Plain backtracking,
    independent of the strip machinery."""
    shape = part.check_partition(shape)
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


# ---------------------------------------------------------------------------
# verification reports

@dataclass(frozen=True)
class VerificationCase:
    name: str
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    parameters: dict
    cases: tuple

    @property
    def passed(self) -> bool:
        """True when there is at least one case and every case passed."""
        return bool(self.cases) and all(case.passed for case in self.cases)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "passed": self.passed,
            "cases": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.cases
            ],
        }


def _case(name, failures) -> VerificationCase:
    """The case that passes when failures is empty; its detail joins the
    first five failures."""
    return VerificationCase(name, not failures, "; ".join(failures[:5]) or None)


def verify_appendix() -> VerificationReport:
    """Rebuild the published small tables and compare entry for entry."""
    cases = []
    for kind, tables in REFERENCE_MATRICES.items():
        for (k, n), (labels, rows) in tables.items():
            system = build_schur_system(n, k)
            built = system.matrix("S", "H") if kind == "ns-to-h" else system.matrix("QS", "M")
            ok = (
                list(built.row_labels) == [tuple(l) for l in labels]
                and [list(r) for r in built.rows] == [list(r) for r in rows]
            )
            detail = None if ok else f"expected {rows}, built {built.rows}"
            cases.append(VerificationCase(f"{kind} k={k} n={n}", ok, detail))
    return VerificationReport("appendix", {}, tuple(cases))


def verify_duality(n, k) -> VerificationReport:
    """Check <QS[alpha], S[beta]> against the Kronecker delta.  Since QS->M
    is the transpose of H->S, the pairing through the M/H expansions is
    entry (beta, alpha) of the one product (S->H)(H->S)."""
    system = build_schur_system(n, k)
    product = system.matrix("S", "H").matmul(system.pieri)
    # The rows arrive beta-major and only the off-identity entries are kept
    # (a missing diagonal entry reads 0); sorting lists them alpha-major.
    bad = sorted(
        (a, b, value)
        for b, (cols, vals) in enumerate(product)
        for a, value in {b: 0, **dict(zip(cols, vals))}.items()
        if value != (a == b)
    )
    labels = system.labels
    failures = [f"<QS{list(labels[a])}, S{list(labels[b])}> = {value}" for a, b, value in bad]
    return VerificationReport("duality", {"n": n, "k": k}, (_case(f"duality n={n} k={k}", failures),))


def verify_projection(n, k) -> VerificationReport:
    """Projecting a Schur-like element onto commuting generators must give
    the k-Schur element of the sorted index."""
    system = build_schur_system(n, k)
    pside = build_kschur_system(n, k)
    cases = []
    for alpha in system.labels:
        image = chi_project(system.expand("S", alpha, "H"))
        expected = pside.expand("s", comp.sort_to_partition(alpha), "h")
        ok = image == expected
        detail = None if ok else f"{image!r} != {expected!r}"
        cases.append(VerificationCase(f"chi(S{list(alpha)}) n={n} k={k}", ok, detail))
    return VerificationReport("projection", {"n": n, "k": k}, tuple(cases))


def verify_decomposition(n, k) -> VerificationReport:
    """The dual k-Schur element of a partition equals the sum of the dual
    Schur-like elements over all rearrangements of its parts."""
    system = build_schur_system(n, k)
    pside = build_kschur_system(n, k)
    rearranged = comp.rearrangements(n, k)
    cases = []
    for lam in pside.labels:
        parts = (system.expand("QS", alpha, "M") for alpha in rearranged[lam])
        total = sum(parts, LinearCombination.zero("M", k))
        expected = monomial_to_M(pside.expand("dual-s", lam, "m"))
        ok = total == expected
        detail = None if ok else f"{total!r} != {expected!r}"
        cases.append(VerificationCase(f"dual-s{list(lam)} n={n} k={k}", ok, detail))
    return VerificationReport("decomposition", {"n": n, "k": k}, tuple(cases))


def stabilization_check(n) -> VerificationReport:
    """Systems freeze at k = n: the components for k = n, n+1, n+2 and for
    unbounded k must coincide, and the unbounded composition system must
    reproduce classical Kostka numbers verified by the tableau oracle."""
    cases = []
    reference = build_schur_system(n, None)
    pref = build_kschur_system(n, None)
    for k in (n, n + 1, n + 2):
        pairs = ((build_schur_system(n, k), reference), (build_kschur_system(n, k), pref))
        same = pairs[0][0].labels == reference.labels and all(
            (bounded.pieri.cols, bounded.pieri.vals) == (unbounded.pieri.cols, unbounded.pieri.vals)
            for bounded, unbounded in pairs
        )
        cases.append(VerificationCase(name=f"n={n} k={k} equals unbounded", passed=same))
    qs_to_m = reference.matrix("QS", "M")
    rearranged = comp.rearrangements(n)
    failures = []
    for lam in pref.labels:
        counts = {mu: ssyt_count(lam, mu) for mu in pref.labels}  # one count per partition
        for beta in reference.labels:
            class_sum = sum(qs_to_m.entry(alpha, beta) for alpha in rearranged[lam])
            expected = counts[comp.sort_to_partition(beta)]
            if class_sum != expected:
                failures.append(f"lambda={lam} beta={beta}: {class_sum} != {expected}")
    cases.append(_case(f"n={n} classical Kostka against tableau oracle", failures))
    return VerificationReport("stabilization", {"n": n}, tuple(cases))


def verify_omega(max_n, max_k) -> VerificationReport:
    """Involution, size preservation, core round trips and bijectivity of
    the bounded-partition/core correspondence; for n <= 7 the construction
    is checked against the exhaustive core search, which grows every
    (k+1)-core of its window from the smaller cores under its first row."""
    cases = []
    for k in range(1, max_k + 1):
        bad = []
        for n in range(max_n + 1):
            seen = {}
            for lam in part.partitions_of(n, k):
                conj = part.k_conjugate(lam, k)
                if part.k_conjugate(conj, k) != lam or sum(conj) != n:
                    bad.append(f"omega_{k}({lam})")
                core = part.bounded_to_core(lam, k)
                if not part.is_core(core, k + 1) or part.core_to_bounded(core, k) != lam:
                    bad.append(f"core round trip {lam} k={k}")
                if core in seen:
                    bad.append(f"core collision {lam} vs {seen[core]} k={k}")
                seen[core] = lam
                if k >= n and conj != part.transpose(lam):
                    bad.append(f"large-k transpose {lam} k={k}")
                if n <= 7:
                    matches = part.core_search_oracle(lam, k)
                    if matches != (core,):
                        bad.append(f"oracle disagrees at {lam} k={k}: {matches}")
        cases.append(_case(f"k={k} n<={max_n}", bad))
    return VerificationReport("omega", {"max_n": max_n, "max_k": max_k}, tuple(cases))


# ---------------------------------------------------------------------------
# negativity search

def negativity_search(max_total_degree, k) -> dict:
    """Hunt for negative coefficients in two senses: structure constants of
    products of Schur-like elements, and expansions of the k-bounded
    Schur-like basis in the unbounded one.  Returns all witnesses found."""
    if max_total_degree < 2:
        raise ValueError("max_total_degree must be at least 2")

    def negatives(combo, labels):
        """(label, coefficient) for each negative coefficient, in label order."""
        return [(gamma, c) for gamma in labels if (c := combo.coefficient(gamma)) < 0]

    product_witnesses = []
    for n1 in range(1, max_total_degree):
        sys1 = build_schur_system(n1, k)
        for n2 in range(1, max_total_degree - n1 + 1):
            sys2 = build_schur_system(n2, k)
            total = build_schur_system(n1 + n2, k)
            pieri = total.matrix("H", "S")
            rights = [(beta, sys2.expand("S", beta, "H")) for beta in sys2.labels]
            for alpha in sys1.labels:
                left = sys1.expand("S", alpha, "H")
                for beta, right in rights:
                    product = pieri.expand(H_product(left, right))
                    for gamma, value in negatives(product, total.labels):
                        product_witnesses.append((alpha, beta, gamma, value))
    classical_witnesses = []
    for n in range(1, max_total_degree + 1):
        bounded = build_schur_system(n, k)
        unbounded = build_schur_system(n, None)
        pieri = unbounded.matrix("H", "S")
        for alpha in bounded.labels:
            in_h = LinearCombination("H", None, dict(bounded.expand("S", alpha, "H").terms()))
            for gamma, value in negatives(pieri.expand(in_h), unbounded.labels):
                classical_witnesses.append((alpha, gamma, value))
    return {"product": product_witnesses, "classical": classical_witnesses}


def verify_negativity(max_total_degree, ks) -> VerificationReport:
    """Passes exactly when a witness is found in each sense for each k."""
    cases = []
    for k in ks:
        found = negativity_search(max_total_degree, k)
        for sense in ("product", "classical"):
            witnesses = found[sense]
            sample = "; ".join(str(w) for w in witnesses[:3])
            cases.append(
                VerificationCase(
                    name=f"{sense} negativity k={k} degree<={max_total_degree}",
                    passed=bool(witnesses),
                    detail=f"{len(witnesses)} witnesses: {sample}" if witnesses else "none found",
                )
            )
    return VerificationReport(
        "negativity", {"max_total_degree": max_total_degree, "k": list(ks)}, tuple(cases)
    )
