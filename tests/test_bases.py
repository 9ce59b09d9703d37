import math
import sys
from array import array
from types import SimpleNamespace

import pytest

from forward_substitution import forward_substitution
import kschur
from kschur import DomainError, bases, compositions, partitions, systems
from kschur.algebra import BasisMatrix, LinearCombination, chi_project, packed, pairing
from kschur.bases import (
    build_kschur_system,
    build_schur_system,
    monomial_to_M,
    negativity_search,
    ssyt_count,
    stabilization_check,
    verify_decomposition,
    verify_duality,
    verify_omega,
    verify_projection,
)
from kschur.compositions import comp_pieri_targets
from kschur.labels import SIDES, enumerate_compositions, partitions_of, sort_to_partition
from kschur.partitions import dominance_leq
from kschur.systems import GradedSystem, kostka, kostka_chains
from sparse_rows import dense, sparse
from tableau_fill import tableau_fill


def test_kostka_worked_example():
    assert kostka((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper") == 2
    chains = kostka_chains((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper")
    assert set(chains) == {
        ((), (1,), (1, 1), (2, 1, 1), (3, 1, 1), (1, 3, 1, 1)),
        ((), (1,), (1, 1), (2, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)),
    }


@pytest.mark.parametrize("part", [1.9, 1.0, "1"])
def test_label_readers_refuse_a_part_that_is_not_an_int(part):
    """kostka and ssyt_count read a shape or content with operator.index,
    which refuses such a part instead of rounding it: kostka counted the
    chains to (1, 2) for the shape (1.9, 2), and ssyt_count((2, 1),
    (1.5, 1.5)) gave 2."""
    assert kostka((1, 2), (2, 1)) == 1
    with pytest.raises(TypeError):
        kostka((part, 2), (2, 1))
    with pytest.raises(TypeError):
        kostka((1, 2), (2, part))
    with pytest.raises(TypeError):
        kostka((2, part), (2, 1), None, "partition")
    with pytest.raises(TypeError):
        ssyt_count((2, part), (2, 1))
    with pytest.raises(TypeError):
        ssyt_count((2, 1), (2, part))


def test_kostka_partition_example():
    assert kostka((2, 1, 1), (1, 1, 1, 1), 3, "partition", "paper") == 2
    assert kostka((2, 1, 1), (1, 1, 1, 1), 3, "partition", "pieri") == 2


def test_kostka_composition_pieri_example():
    assert kostka((2, 2), (1, 1, 1, 1), 3, "composition", "pieri") == 2


def test_kostka_diagonal_is_one_in_pieri_order():
    for k in (2, 3, None):
        for n in range(6):
            for alpha in enumerate_compositions(n, k):
                assert kostka(alpha, alpha, k, "composition", "pieri") == 1


def test_kostka_validations():
    with pytest.raises(ValueError):
        kostka((2,), (1,), None)
    with pytest.raises(ValueError):
        kostka((2,), (2,), None, family="poset")
    with pytest.raises(ValueError):
        kostka((2,), (2,), None, order="sideways")
    with pytest.raises(DomainError):
        kostka((3,), (3,), 2)
    assert kostka((), (), 3) == 1


def test_kostka_count_matches_chain_listing():
    for k in (2, 3):
        for n in range(6):
            for alpha in enumerate_compositions(n, k):
                for beta in enumerate_compositions(n, k):
                    count = kostka(alpha, beta, k, "composition", "pieri")
                    chains = kostka_chains(alpha, beta, k, "composition", "pieri")
                    assert count == len(chains)


def test_partition_kostka_content_rearrangement_invariance():
    for k in (2, 3):
        for n in range(7):
            for lam in partitions_of(n, k):
                for beta in enumerate_compositions(n, k):
                    mu = sort_to_partition(beta)
                    assert kostka(lam, beta, k, "partition", "paper") == kostka(
                        lam, mu, k, "partition", "paper"
                    )
                    assert kostka(lam, beta, k, "partition", "paper") == kostka(
                        lam, beta, k, "partition", "pieri"
                    )


def test_system_inverse_round_trip():
    for k in (2, 3, None):
        for n in range(6):
            system = build_schur_system(n, k)
            size = len(system.labels)
            identity = sparse([[int(i == j) for j in range(size)] for i in range(size)])
            product = system.S_to_H.matmul(system.matrix("H", "S"))
            assert [tuple(map(packed, pair)) for pair in product] == list(zip(identity["cols"], identity["vals"]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, None])
def test_peeled_inverses_match_forward_substitution(k):
    for build, kinds, max_n in ((build_schur_system, ("H", "S"), 10), (build_kschur_system, ("h", "s"), 14)):
        for n in range(max_n + 1):
            system = build(n, k)
            expected = forward_substitution(system.matrix(*kinds))
            peeled = system.matrix(*kinds[::-1])
            assert (peeled.row_labels, peeled.col_labels) == (expected.row_labels, expected.col_labels)
            assert (peeled.cols, peeled.vals) == (expected.cols, expected.vals), (kinds, n, k)


def test_pieri_entries_are_chain_counts():
    """Entry (beta, alpha) of H->S (and h->s) counts the strip chains from
    the empty shape to alpha with content beta read back to front."""
    for k in (1, 2, 3, None):
        for n in range(9):
            for family, build, kinds in (
                ("composition", build_schur_system, ("H", "S")),
                ("partition", build_kschur_system, ("h", "s")),
            ):
                system = build(n, k)
                rows = dense(system.matrix(*kinds))
                for beta, row in zip(system.labels, rows):
                    for alpha, value in zip(system.labels, row):
                        assert value == kostka(alpha, beta, k, family, "pieri"), (alpha, beta, k)


def test_peel_refuses_a_target_out_of_order(monkeypatch):
    # S[1,1] = H[1] S[1] - S[2] peels against the targets [1,1] and [2] of
    # H[1] on S[1]; S[2] = H[2] S[] has the one target [2], and it comes first.
    fits = systems.STRIPS["composition"][1]
    for wrong in (((1, 1), (2,)), ((1, 1),), ()):
        def targets(beta, i, k, wrong=wrong):
            return wrong if (beta, i) == ((), 2) else comp_pieri_targets(beta, i, k)

        monkeypatch.setitem(systems.STRIPS, "composition", (targets, fits))
        systems._strip.cache_clear()
        try:
            with pytest.raises(DomainError, match=r"^\(2,\) is not the last strip target"):
                systems.GradedSystem("composition", 2, None).matrix("S", "H")
        finally:
            systems._strip.cache_clear()


def test_peel_target_is_the_least_dominant_of_its_strip():
    """Read from the strip tables with no build, for every label gamma and
    strip size i: the peel's own target, (i, gamma) on compositions and
    sort(gamma + (i,)) on partitions, is a strip target; no other target has
    its sorted shape; and every target's sorted shape dominates it.  So every
    other target comes earlier in label order, as the peel needs."""
    checked = 0
    for family, side in SIDES.items():
        targets = systems.STRIPS[family][0]
        for k in (1, 2, 3, 4, 5, None):
            for m in range(12):
                for gamma in side.labels(m, k):
                    for i in range(1, 13 - m if k is None else min(k, 12 - m) + 1):
                        own = side.label_of((i,) + gamma)
                        shape = sort_to_partition(own)
                        found = targets(gamma, i, k)
                        assert own in found, (family, gamma, i, k)
                        for delta in found:
                            assert delta == own or sort_to_partition(delta) != shape, (family, gamma, i, k, delta)
                            assert dominance_leq(shape, sort_to_partition(delta)), (family, gamma, i, k, delta)
                        checked += len(found)
    assert checked == 48295


def test_builds_need_no_deep_recursion():
    """Label enumeration, the strip walk and the peel all iterate: at
    (150, 1) they run with the recursion limit 100 frames above the
    caller, where recursing once per part could not."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        for build, kinds in ((build_schur_system, ("H", "S")), (build_kschur_system, ("h", "s"))):
            system = build(150, 1)
            assert system.labels == ((1,) * 150,)
            assert dense(system.matrix(*kinds)) == [[1]]
            assert dense(system.matrix(*kinds[::-1])) == [[1]]
    finally:
        sys.setrecursionlimit(limit)


def test_stored_rows_are_sorted_and_nonzero():
    """Every row of every stored matrix lists strictly increasing columns
    and only nonzero entries, each packed: an array, or a tuple only when a
    value needs more than 64 bits."""
    for k in (1, 2, 3, None):
        for n in range(8):
            for system, kinds in (
                (build_schur_system(n, k), ("H", "S", "QS", "M")),
                (build_kschur_system(n, k), ("h", "s", "dual-s", "m")),
            ):
                complete, schur, dual, monomial = kinds
                pairs = ((complete, schur), (schur, complete), (dual, monomial), (monomial, dual))
                for matrix in (system.matrix(*pair) for pair in pairs):
                    assert len(matrix.cols) == len(matrix.vals) == len(matrix.row_labels)
                    for cols, vals in zip(matrix.cols, matrix.vals):
                        assert len(cols) == len(vals) and 0 not in vals
                        assert all(a < b for a, b in zip(cols, cols[1:]))
                        assert not cols or 0 <= cols[0] and cols[-1] < len(matrix.col_labels)
                        for row in (cols, vals):
                            assert type(row) is array or (
                                type(row) is tuple and any(not -(1 << 63) <= v < 1 << 63 for v in row)
                            )


def test_unit_diagonal_and_dominance_support():
    for k in (2, 3):
        for n in range(7):
            system = build_schur_system(n, k)
            for beta, row in zip(system.labels, dense(system.matrix("H", "S"))):
                for alpha, value in zip(system.labels, row):
                    if alpha == beta:
                        assert value == 1
                    elif value:
                        lam, mu = sort_to_partition(beta), sort_to_partition(alpha)
                        assert lam != mu and dominance_leq(lam, mu)


def test_h_to_s_corollary_round_trip():
    # Substituting the S expansion back into H_beta recovers H_beta.
    for k in (2, 3):
        for n in range(6):
            system = build_schur_system(n, k)
            for beta in system.labels:
                acc = LinearCombination.zero("H", k)
                for alpha, coeff in system.expand("H", beta, "S").terms():
                    acc = acc + coeff * system.expand("S", alpha, "H")
                assert acc == LinearCombination.single("H", beta, k)


def test_dual_expansion_matches_pieri_kostka():
    for k in (2, 3, None):
        for n in range(6):
            system = build_schur_system(n, k)
            for alpha in system.labels:
                for beta in system.labels:
                    assert system.matrix("QS", "M").entry(alpha, beta) == kostka(
                        alpha, beta, k, "composition", "pieri"
                    )


def test_dual_kschur_expansion_matches_partition_kostka():
    for k in (2, 3):
        for n in range(6):
            system = build_kschur_system(n, k)
            for lam in system.labels:
                for mu in system.labels:
                    assert system.matrix("dual-s", "m").entry(lam, mu) == kostka(
                        lam, mu, k, "partition", "pieri"
                    )


def test_classical_partition_system_matches_ssyt_oracle():
    # At unbounded k the h-to-Schur entries are classical Kostka numbers.
    for n in range(7):
        system = build_kschur_system(n, None)
        for mu in system.labels:
            for lam in system.labels:
                assert system.matrix("h", "s").entry(mu, lam) == ssyt_count(lam, mu)


def test_kschur_degree_two_example():
    for k in (2, 3, 5):
        system = build_kschur_system(2, k)
        assert system.expand("s", (1, 1), "h") == LinearCombination(
            "h", k, {(1, 1): 1, (2,): -1}
        )


def test_dual_kschur_monomial_coefficient_example():
    system = build_kschur_system(4, 3)
    assert system.expand("dual-s", (2, 1, 1), "m").coefficient((1, 1, 1, 1)) == 2


def test_duality_projection_decomposition_reports():
    for k in (2, 3):
        for n in range(6):
            assert verify_duality(n, k).passed
            assert verify_projection(n, k).passed
            assert verify_decomposition(n, k).passed


def test_pairing_of_dual_bases_is_kronecker():
    for k in (2, 4):
        for n in range(6):
            system = build_schur_system(n, k)
            for alpha in system.labels:
                qs = system.expand("QS", alpha, "M")
                for beta in system.labels:
                    assert pairing(qs, system.expand("S", beta, "H")) == (1 if alpha == beta else 0)


@pytest.mark.parametrize("k", [2, 3, 4, None])
def test_duality_product_entries_are_pairings(k):
    # The d^2 pairing form is the specification of the one product that
    # verify_duality reads: <QS[alpha], S[beta]> is its entry (beta, alpha).
    # On the true matrices both sides are the identity, so the identity is
    # also checked on a wrong S->H, where a transposed product shows.
    for n in range(7):
        system = build_schur_system(n, k)
        first, last = system.labels[0], system.labels[-1]
        broken = with_entry_changed(system, "S", "H", {(last, first): 1, (first, last): 2})
        for graded in (system, broken):
            product = graded.matrix("S", "H").matmul(graded.matrix("H", "S"))
            qs = [graded.expand("QS", alpha, "M") for alpha in graded.labels]
            naive = sparse([[pairing(f, graded.expand("S", beta, "H")) for f in qs] for beta in graded.labels])
            assert [tuple(map(packed, pair)) for pair in product] == list(zip(naive["cols"], naive["vals"]))


def with_entry_changed(system, source, target, changes):
    """A copy of the graded system whose source->target matrix has the
    given {(row label, column label): delta} added to its entries."""
    matrix = system.matrix(source, target)
    rows = dense(matrix)
    for (row_label, col_label), delta in changes.items():
        rows[matrix.row_labels.index(row_label)][matrix.col_labels.index(col_label)] += delta
    broken = GradedSystem(system.family, system.n, system.k)
    broken._matrices[source, target] = BasisMatrix(
        matrix.n, matrix.k, matrix.source_kind, matrix.target_kind, matrix.row_labels, matrix.col_labels, **sparse(rows)
    )
    return broken


def test_duality_fails_on_a_wrong_inverse(monkeypatch):
    system = build_schur_system(5, 3)
    first, last = system.labels[0], system.labels[-1]
    broken = with_entry_changed(system, "S", "H", {(last, first): 1})
    monkeypatch.setattr(bases, "build_schur_system", lambda n, k=None: broken)
    report = verify_duality(5, 3)
    assert not report.passed
    assert report.cases[0].detail == f"<QS{list(first)}, S{list(last)}> = 1"


def test_duality_reports_a_missing_diagonal_entry(monkeypatch):
    # Zeroing the first diagonal entry of S->H empties the product's first
    # sparse row, so its diagonal pairing is absent rather than 0.
    system = build_schur_system(5, 3)
    first = system.labels[0]
    broken = with_entry_changed(system, "S", "H", {(first, first): -1})
    monkeypatch.setattr(bases, "build_schur_system", lambda n, k=None: broken)
    report = verify_duality(5, 3)
    assert not report.passed
    assert report.cases[0].detail == f"<QS{list(first)}, S{list(first)}> = 0"


def test_duality_failures_are_listed_alpha_major(monkeypatch):
    system = build_schur_system(5, 3)
    changes = {(beta, beta): 1 for beta in system.labels[-2:]}
    broken = with_entry_changed(system, "S", "H", changes)
    monkeypatch.setattr(bases, "build_schur_system", lambda n, k=None: broken)
    bad = [
        (alpha, beta, value)
        for alpha in system.labels
        for beta in system.labels
        if (value := pairing(broken.expand("QS", alpha, "M"), broken.expand("S", beta, "H")))
        != (alpha == beta)
    ]
    assert len({beta for _, beta, _ in bad[:5]}) == 2  # the order is visible
    report = verify_duality(5, 3)
    assert not report.passed
    assert report.cases[0].detail == "; ".join(
        f"<QS{list(alpha)}, S{list(beta)}> = {value}" for alpha, beta, value in bad[:5]
    )


def test_classical_suites_fail_on_a_wrong_dual_entry(monkeypatch):
    # Entry (first, first) of H->S is entry (first, first) of its transpose
    # QS->M, which the suites read as H->S merged by class.  The unbounded
    # Pieri rows are wrong, so the equals-unbounded cases fail as well.
    real = bases.build_schur_system
    system = real(5, None)
    first = system.labels[0]
    broken = with_entry_changed(system, "H", "S", {(first, first): 1})
    monkeypatch.setattr(
        bases, "build_schur_system", lambda n, k=None: broken if k is None else real(n, k)
    )
    cases = stabilization_check(5).cases
    assert [case.passed for case in cases] == [False, False, False, False]
    assert "classical Kostka" in cases[-1].name
    assert not verify_decomposition(5, None).passed


@pytest.mark.parametrize("k", [3, None])
@pytest.mark.parametrize("source, target", [("S", "H"), ("H", "S")])
def test_merged_rows_match_the_per_row_path(monkeypatch, source, target, k):
    """With one entry of S->H or H->S wrong, projection and decomposition
    report the cases and details of the slower path they replaced: chi of
    each S row expanded in H, and the QS->M expansion of each class sum of
    QS over the rearrangements of a partition."""
    system = build_schur_system(5, k)
    broken = with_entry_changed(system, source, target, {(system.labels[1], system.labels[3]): 1})
    monkeypatch.setattr(bases, "build_schur_system", lambda n, k=None: broken)
    pside = build_kschur_system(5, k)
    rearranged = compositions.rearrangements(5, k)
    projection = [
        (chi_project(broken.expand("S", alpha, "H")), pside.expand("s", sort_to_partition(alpha), "h"))
        for alpha in broken.labels
    ]
    decomposition = [
        (
            broken.matrix("QS", "M").expand(LinearCombination("QS", k, dict.fromkeys(rearranged[lam], 1))),
            monomial_to_M(pside.expand("dual-s", lam, "m")),
        )
        for lam in pside.labels
    ]
    for report, pairs in ((verify_projection(5, k), projection), (verify_decomposition(5, k), decomposition)):
        details = [None if got == expected else f"{got!r} != {expected!r}" for got, expected in pairs]
        assert [(case.passed, case.detail) for case in report.cases] == [(d is None, d) for d in details]
        # only the suite that reads the wrong matrix fails
        assert report.passed is (report.suite != ("projection" if source == "S" else "decomposition"))


@pytest.mark.parametrize("family", ["composition", "partition"])
def test_kostka_prunes_chains_to_the_shape(family):
    # Unpruned, the composition side would walk all 2^23 compositions of 24.
    assert kostka((24,), (1,) * 24, None, family, "paper") == 1


def test_monomial_to_M_identification():
    combo = LinearCombination("m", None, {(2, 1): 1})
    assert monomial_to_M(combo) == LinearCombination(
        "M", None, {(2, 1): 1, (1, 2): 1}
    )


@pytest.mark.parametrize("kind, index", [("M", (2, 1)), ("h", (2, 1)), ("dual-s", (1,))])
def test_monomial_to_M_refuses_another_kind(kind, index):
    with pytest.raises(DomainError, match=f"^expected kind 'm', got {kind!r}$"):
        monomial_to_M(LinearCombination.single(kind, index, None))


SSYT_COUNTS = [
    ((2, 1), (1, 1, 1), 2),
    ((2, 1), (2, 1), 1),
    ((3, 1), (2, 2), 1),
    ((2, 2), (1, 1, 1, 1), 2),
    ((1, 1, 1), (2, 1), 0),
    ((), (), 1),
    ((2, 1), (2,), 0),  # a content of another size fills the shape in no way
    ((), (1,), 0),
]


def test_ssyt_counts():
    for shape, content, count in SSYT_COUNTS:
        assert ssyt_count(shape, content) == count


def test_ssyt_count_calls_no_strip_generator(monkeypatch):
    """The oracle lists its strips itself: with the package's strip and
    Pieri generators made to raise, it still gives every count."""
    def refuse(*args, **kwargs):
        raise AssertionError("the tableau oracle called a strip generator")

    names = ("column_chains", "partition_covers", "k_pieri_targets", "is_horizontal_strip", "comp_pieri_targets")
    for module in (kschur, partitions, compositions):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        partitions.k_pieri_targets((2, 1), 1, None)
    for shape, content, count in SSYT_COUNTS:
        assert ssyt_count(shape, content) == count


def test_ssyt_count_matches_the_cell_by_cell_fill():
    """The strip peel agrees with filling one cell at a time: on every pair
    of partitions of n <= 8, and on every composition content of n <= 6,
    also with a zero part before, between and after its parts."""
    for n in range(9):
        for shape in partitions_of(n):
            for content in partitions_of(n):
                assert ssyt_count(shape, content) == tableau_fill(shape, content), (shape, content)
            if n > 6:
                continue
            for alpha in enumerate_compositions(n):
                padded = (0,) + tuple(x for a in alpha for x in (a, 0))
                assert ssyt_count(shape, alpha) == tableau_fill(shape, alpha), (shape, alpha)
                assert ssyt_count(shape, padded) == tableau_fill(shape, padded), (shape, padded)


def test_ssyt_count_of_standard_content_is_the_hook_length_formula():
    for n in range(11):
        for shape in partitions_of(n):
            hooks = math.prod(partitions.hook_lengths(shape).values())
            assert ssyt_count(shape, (1,) * n) * hooks == math.factorial(n), shape


def test_ssyt_count_ignores_the_order_of_the_content():
    for n in range(8):
        shapes = partitions_of(n)
        for alpha in enumerate_compositions(n):
            for shape in shapes:
                assert ssyt_count(shape, alpha) == ssyt_count(shape, sort_to_partition(alpha)), (shape, alpha)


def test_ssyt_count_content_parts():
    """A zero content part fills nothing and a bool counts as 0 or 1; a
    negative part is refused rather than counted."""
    assert ssyt_count((2, 1), (0, 2, 0, 1)) == 1
    assert ssyt_count((), (0,) * 5000) == 1
    assert ssyt_count((2, 1), (True, False, True, True)) == 2
    with pytest.raises(DomainError):
        ssyt_count((2, 1), (3, -1, 1))


def test_classical_limit_kostka_against_ssyt():
    for n in range(6):
        system = build_schur_system(n, None)
        for lam in partitions_of(n):
            for beta in system.labels:
                class_sum = sum(
                    kostka(alpha, beta, None, "composition", "pieri")
                    for alpha in system.labels
                    if sort_to_partition(alpha) == lam
                )
                assert class_sum == ssyt_count(lam, sort_to_partition(beta))


def test_stabilization():
    for n in range(6):
        assert stabilization_check(n).passed


def test_stabilization_counts_each_tableau_number_once(monkeypatch):
    # One ssyt_count per pair of partitions of 7 (15 * 15), not one per
    # partition and composition (15 * 64).
    calls = []

    def counted(shape, content):
        calls.append((shape, content))
        return ssyt_count(shape, content)

    monkeypatch.setattr(bases, "ssyt_count", counted)
    assert stabilization_check(7).passed
    assert len(calls) == 225


@pytest.mark.parametrize("builder", ["build_schur_system", "build_kschur_system"])
def test_stabilization_compares_the_labels_of_both_sides(monkeypatch, builder):
    """A bounded system of either side whose labels are reversed but whose
    Pieri rows are right fails every equals-unbounded case."""
    real = getattr(systems, builder)

    def reversed_labels(n, k=None):
        system = real(n, k)
        return system if k is None else SimpleNamespace(labels=system.labels[::-1], pieri=system.pieri)

    monkeypatch.setattr(bases, builder, reversed_labels)
    cases = stabilization_check(4).cases
    assert [(case.name, case.passed) for case in cases[:3]] == [(f"n=4 k={k} equals unbounded", False) for k in (4, 5, 6)]
    assert cases[3].passed


def test_verifiers_derive_each_transpose_once(monkeypatch):
    transposed = BasisMatrix.transposed
    calls = []

    def counted(self, source_kind, target_kind):
        calls.append((self.n, self.k, source_kind, target_kind))
        return transposed(self, source_kind, target_kind)

    monkeypatch.setattr(BasisMatrix, "transposed", counted)
    build_schur_system.cache_clear()
    build_kschur_system.cache_clear()
    stabilization_check(7)
    for n in range(6):
        verify_duality(n, 3)
        verify_projection(n, 3)
        verify_decomposition(n, 3)
    # both sides are checked through H->S and S->H, or h->s and s->h, alone
    assert calls == []
    system = build_schur_system(5, 3)
    assert system.matrix("QS", "M") is system.matrix("QS", "M")
    assert system.matrix("M", "QS") is system.matrix("M", "QS")


@pytest.mark.parametrize("k", [2, 3, None])
def test_class_suites_read_no_expansion(monkeypatch, k):
    """Projection, decomposition and stabilization read the rows of H->S,
    S->H, h->s and s->h only: no single element is expanded, and no m
    combination is spread over M."""

    def refuse(*args):
        raise AssertionError("a class suite expanded a single element")

    monkeypatch.setattr(GradedSystem, "expand", refuse)
    monkeypatch.setattr(bases, "monomial_to_M", refuse)
    for n in range(7):
        assert verify_projection(n, k).passed
        assert verify_decomposition(n, k).passed
        assert stabilization_check(n).passed


def test_omega_report_small():
    assert verify_omega(8, 4).passed


def _most_dominant(lam, k):
    """The first k-bounded partition of lam's size: a map that sends (1, 1)
    at k = 2 where (2,) goes."""
    return partitions_of(sum(lam), k)[0]


_bounded_to_core, _core_search_oracle = partitions.bounded_to_core, partitions.core_search_oracle


@pytest.mark.parametrize(
    "name, fake, details",
    [
        # not an involution, and not the transpose at k >= n
        ("k_conjugate", _most_dominant, [None, "large-k transpose (2,) k=2; omega_2((1, 1))"]),
        # (1, 1) and (2,) share a core, which leads back to (2,) and not (1, 1)
        (
            "bounded_to_core",
            lambda lam, k: _bounded_to_core(_most_dominant(lam, k), k),
            [None, "core round trip (1, 1) k=2; core collision (1, 1) vs (2,) k=2; "
             "oracle disagrees at (1, 1) k=2: ((1, 1),)"],
        ),
        (
            "core_search_oracle",
            lambda lam, k: () if lam == (1, 1) else _core_search_oracle(lam, k),
            ["oracle disagrees at (1, 1) k=1: ()", "oracle disagrees at (1, 1) k=2: ()"],
        ),
    ],
    ids=["k_conjugate", "bounded_to_core", "core_search_oracle"],
)
def test_omega_report_names_each_failure(name, fake, details, monkeypatch):
    """Each of the five checks of verify_omega fails, with its own detail,
    when the map that it checks is broken."""
    monkeypatch.setattr(partitions, name, fake)
    report = verify_omega(2, 2)
    assert not report.passed
    assert [case.detail for case in report.cases] == details


def test_negativity_search_finds_witnesses():
    for k in (2, 3):
        found = negativity_search(6, k)
        assert found["product"], f"no negative structure constants at k={k}"
    # Degenerate products against the unit stay nonnegative.
    found = negativity_search(3, 2)
    for alpha, beta, gamma, value in found["product"]:
        assert alpha != () and beta != ()


def test_negativity_witness_is_reproducible():
    # S[1,1] * S[1] at k=2 has a negative coefficient at S[2,1]:
    # (H[1,1] - H[2]) H[1] = H[1,1,1] - H[2,1] = S[1,2] + S[1,1,1] - S[2,1].
    found = negativity_search(3, 2)
    assert ((1, 1), (1,), (2, 1), -1) in found["product"]


@pytest.mark.parametrize("k", [2, None])
def test_both_sides_refuse_a_negative_degree(k):
    """Both label functions, and the builders of both sides, refuse n = -1
    with the same message."""
    for build in (enumerate_compositions, partitions_of, systems.build_schur_system, systems.build_kschur_system):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            build(-1, k)
