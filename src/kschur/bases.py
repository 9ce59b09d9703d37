"""Verification of the graded systems in ``systems`` against the paper.

Each suite checks one identity of the dual bases and returns a report of
named cases: the published appendix tables, the duality pairing, the
projection onto commuting generators, the decomposition of dual k-Schur
functions, stabilization in k against a strip-peeling tableau oracle, the
k-conjugation and core bijections, and the search for negative structure
constants.

Only the verify command loads this module, and only the appendix suite
the reference tables; the matrix, expand and kostka requests stop at
``systems``.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from . import compositions as comp
from . import partitions as part
from .algebra import H_product, LinearCombination
from .errors import DomainError
from .labels import check_partition, format_k, partitions_of, sort_to_partition
from .systems import build_kschur_system, build_schur_system


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
# independent oracle: semistandard Young tableaux by peeling strips

def ssyt_count(shape, content) -> int:
    """Count fillings of the Young diagram with content[i] copies of i + 1,
    rows weakly increasing, columns strictly increasing.  The cells of the
    largest value form a horizontal strip, so each nonzero part, last first,
    peels one off every shape left (row i gives up at most shape[i] -
    shape[i+1] cells), summing the ways to each shape once per step.  No
    strip generator of the package is called, so the oracle stays independent."""
    shape = check_partition(shape)
    content = tuple(map(operator.index, content))
    if any(c < 0 for c in content):
        raise DomainError(f"content parts must be nonnegative: {content!r}")
    if sum(shape) != sum(content):
        return 0
    ways = {shape: 1}  # each shape keeps its length, an emptied row as 0
    for cells in reversed([c for c in content if c]):
        peeled = {}
        for lam, count in ways.items():
            left = [((), cells)]  # (rows kept so far, cells still to peel)
            for row, below in zip(lam, lam[1:] + (0,)):
                left = [(mu + (row - d,), rest - d) for mu, rest in left for d in range(min(row - below, rest) + 1)]
            for mu in (mu for mu, rest in left if not rest):
                peeled[mu] = peeled.get(mu, 0) + count
        ways = peeled
    return ways.get((0,) * len(shape), 0)


# ---------------------------------------------------------------------------
# verification reports

class VerificationCase(NamedTuple):
    name: str
    passed: bool
    detail: str | None = None


class VerificationReport(NamedTuple):
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
            "cases": [case._asdict() for case in self.cases],
        }


def _case(name, failures) -> VerificationCase:
    """The case that passes when failures is empty; its detail joins the
    first five failures."""
    return VerificationCase(name, not failures, "; ".join(failures[:5]) or None)


def verify_appendix() -> VerificationReport:
    """Rebuild the published small tables and compare each row as its
    (column, entry) pairs, the zeros left out."""
    from .reference_tables import REFERENCE_MATRICES

    cases = []
    for kind, tables in REFERENCE_MATRICES.items():
        for (k, n), (labels, rows) in tables.items():
            system = build_schur_system(n, k)
            built = system.matrix("S", "H") if kind == "ns-to-h" else system.matrix("QS", "M")
            expected = [[(c, v) for c, v in enumerate(row) if v] for row in rows]
            pairs = [list(zip(cols, vals)) for cols, vals in zip(built.cols, built.vals)]
            ok = list(built.row_labels) == [tuple(l) for l in labels] and pairs == expected
            cases.append(_case(f"{kind} k={k} n={n}", [] if ok else [f"expected {expected}, built {pairs}"]))
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
    return VerificationReport("duality", {"n": n, "k": k}, (_case(f"duality n={n} k={format_k(k)}", failures),))


def _class_rows(n, k, source, target):
    """(beta, row beta of A.P, row beta of P.a) for each composition beta,
    where A is source->target, a the same change of basis on the partition
    side and P sends each composition to its sorted partition: row beta of A
    with its columns added into the column of their sorted label, and row
    sort(beta) of a, both as combinations of the partition kind."""
    matrix = build_schur_system(n, k).matrix(source, target)
    lower = build_kschur_system(n, k).matrix(source.lower(), target.lower())
    rows = {lam: lower.expand(LinearCombination.single(lower.source_kind, lam, k)) for lam in lower.row_labels}
    classes = [sort_to_partition(label) for label in matrix.col_labels]
    for beta, cols, vals in zip(matrix.row_labels, matrix.cols, matrix.vals):
        merged = {}
        for lam, v in zip(map(classes.__getitem__, cols), vals):
            merged[lam] = merged.get(lam, 0) + v
        yield beta, LinearCombination(lower.target_kind, k, merged), rows[sort_to_partition(beta)]


def verify_projection(n, k) -> VerificationReport:
    """Projecting a Schur-like element onto commuting generators must give
    the k-Schur element of the sorted index: row alpha of S->H merged by
    class is row sort(alpha) of k-Schur->h."""
    cases = []
    for alpha, image, expected in _class_rows(n, k, "S", "H"):
        failures = [] if image == expected else [f"{image!r} != {expected!r}"]
        cases.append(_case(f"chi(S{list(alpha)}) n={n} k={format_k(k)}", failures))
    return VerificationReport("projection", {"n": n, "k": k}, tuple(cases))


def verify_decomposition(n, k) -> VerificationReport:
    """The dual k-Schur element of a partition lambda equals the sum of the
    dual Schur-like elements over its rearrangements, both read in M as
    column lambda of each side of H->S against h->k-Schur, with no transpose."""
    rows = list(_class_rows(n, k, "H", "S"))
    cases = []
    for lam in partitions_of(n, k):
        total = LinearCombination("M", k, {beta: merged.coefficient(lam) for beta, merged, _ in rows})
        expected = LinearCombination("M", k, {beta: row.coefficient(lam) for beta, _, row in rows})
        failures = [] if total == expected else [f"{total!r} != {expected!r}"]
        cases.append(_case(f"dual-s{list(lam)} n={n} k={format_k(k)}", failures))
    return VerificationReport("decomposition", {"n": n, "k": k}, tuple(cases))


def stabilization_check(n) -> VerificationReport:
    """Systems freeze at k = n: the components for k = n, n+1, n+2 and for
    unbounded k must coincide, and the unbounded composition system must
    reproduce classical Kostka numbers verified by the tableau oracle: entry
    lambda of row beta of H->S merged by class counts the tableaux of shape
    lambda and content sort(beta)."""
    cases = []
    reference = build_schur_system(n, None)
    pref = build_kschur_system(n, None)
    for k in (n, n + 1, n + 2):
        pairs = ((build_schur_system(n, k), reference), (build_kschur_system(n, k), pref))
        same = all((b.labels, b.pieri.cols, b.pieri.vals) == (u.labels, u.pieri.cols, u.pieri.vals) for b, u in pairs)
        cases.append(VerificationCase(name=f"n={n} k={k} equals unbounded", passed=same))
    rows = list(_class_rows(n, None, "H", "S"))
    failures = []
    for lam in pref.labels:
        counts = {mu: ssyt_count(lam, mu) for mu in pref.labels}  # one count per partition
        for beta, row, _ in rows:
            got, expected = row.coefficient(lam), counts[sort_to_partition(beta)]
            if got != expected:
                failures.append(f"lambda={lam} beta={beta}: {got} != {expected}")
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
            for lam in partitions_of(n, k):
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
        raise ValueError(f"the total degree must be at least 2, that of a product of two factors, got {max_total_degree}")

    def negatives(combo, labels):
        """(label, coefficient) for each negative coefficient, in label order."""
        return [(gamma, c) for gamma in labels if (c := combo.coefficient(gamma)) < 0]

    in_h, classical_witnesses = {}, []  # in_h[n]: (alpha, S_alpha in H) for each label of degree n
    for n in range(1, max_total_degree + 1):
        bounded, unbounded = build_schur_system(n, k), build_schur_system(n, None)
        in_h[n] = [(alpha, bounded.expand("S", alpha, "H")) for alpha in bounded.labels]
        pieri = unbounded.matrix("H", "S")
        for alpha, combo in in_h[n]:
            in_s = pieri.expand(LinearCombination("H", None, dict(combo.terms())))
            for gamma, value in negatives(in_s, unbounded.labels):
                classical_witnesses.append((alpha, gamma, value))
    product_witnesses = []
    for n1 in range(1, max_total_degree):
        for n2 in range(1, max_total_degree - n1 + 1):
            total = build_schur_system(n1 + n2, k)
            pieri = total.matrix("H", "S")
            for alpha, left in in_h[n1]:
                for beta, right in in_h[n2]:
                    product = pieri.expand(H_product(left, right))
                    for gamma, value in negatives(product, total.labels):
                        product_witnesses.append((alpha, beta, gamma, value))
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
