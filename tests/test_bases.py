from dataclasses import replace

import pytest

from kschur import DomainError, bases
from kschur.algebra import BasisMatrix, LinearCombination, pairing
from kschur.bases import (
    GradedSystem,
    build_kschur_system,
    build_schur_system,
    kostka,
    kostka_chains,
    monomial_to_M,
    negativity_search,
    order_convention_report,
    ssyt_count,
    stabilization_check,
    verify_decomposition,
    verify_duality,
    verify_omega,
    verify_projection,
)
from kschur.compositions import enumerate_compositions, sort_to_partition
from kschur.partitions import dominance_lt, partitions_of


def test_kostka_worked_example():
    assert kostka((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper") == 2
    chains = kostka_chains((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper")
    assert set(chains) == {
        ((), (1,), (1, 1), (2, 1, 1), (3, 1, 1), (1, 3, 1, 1)),
        ((), (1,), (1, 1), (2, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)),
    }


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
            product = tuple(system.S_to_H.matmul(system.matrix("H", "S")))
            size = len(system.labels)
            assert product == tuple(
                tuple(int(i == j) for j in range(size)) for i in range(size)
            )


def test_unit_diagonal_and_dominance_support():
    for k in (2, 3):
        for n in range(7):
            system = build_schur_system(n, k)
            for beta, row in zip(system.labels, system.matrix("H", "S").rows):
                for alpha, value in zip(system.labels, row):
                    if alpha == beta:
                        assert value == 1
                    elif value:
                        assert dominance_lt(
                            sort_to_partition(beta), sort_to_partition(alpha)
                        )


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
            product = tuple(graded.matrix("S", "H").matmul(graded.matrix("H", "S")))
            for a, alpha in enumerate(graded.labels):
                qs = graded.expand("QS", alpha, "M")
                for b, beta in enumerate(graded.labels):
                    assert product[b][a] == pairing(qs, graded.expand("S", beta, "H"))


def with_entry_changed(system, source, target, changes):
    """A copy of the graded system whose source->target matrix has the
    given {(row label, column label): delta} added to its entries."""
    matrix = system.matrix(source, target)
    rows = [list(row) for row in matrix.rows]
    for (row_label, col_label), delta in changes.items():
        rows[matrix.row_labels.index(row_label)][matrix.col_labels.index(col_label)] += delta
    broken = GradedSystem(n=system.n, k=system.k, labels=system.labels, pieri=system.pieri)
    broken._matrices[source, target] = replace(matrix, rows=tuple(map(tuple, rows)))
    return broken


def test_duality_fails_on_a_wrong_inverse(monkeypatch):
    system = build_schur_system(5, 3)
    first, last = system.labels[0], system.labels[-1]
    broken = with_entry_changed(system, "S", "H", {(last, first): 1})
    monkeypatch.setattr(bases, "build_schur_system", lambda n, k=None: broken)
    report = verify_duality(5, 3)
    assert not report.passed
    assert report.cases[0].detail == f"<QS{list(first)}, S{list(last)}> = 1"


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
    real = bases.build_schur_system
    system = real(5, None)
    first = system.labels[0]
    broken = with_entry_changed(system, "QS", "M", {(first, first): 1})
    monkeypatch.setattr(
        bases, "build_schur_system", lambda n, k=None: broken if k is None else real(n, k)
    )
    cases = stabilization_check(5).cases
    assert [case.passed for case in cases] == [True, True, True, False]
    assert "classical Kostka" in cases[-1].name
    assert not verify_decomposition(5, None).passed


@pytest.mark.parametrize("family", ["composition", "partition"])
def test_kostka_prunes_chains_to_the_shape(family):
    # Unpruned, the composition side would walk all 2^23 compositions of 24.
    assert kostka((24,), (1,) * 24, None, family, "paper") == 1


def test_monomial_to_M_identification():
    combo = LinearCombination("m", None, {(2, 1): 1})
    assert monomial_to_M(combo) == LinearCombination(
        "M", None, {(2, 1): 1, (1, 2): 1}
    )


def test_ssyt_counts():
    assert ssyt_count((2, 1), (1, 1, 1)) == 2
    assert ssyt_count((2, 1), (2, 1)) == 1
    assert ssyt_count((3, 1), (2, 2)) == 1
    assert ssyt_count((2, 2), (1, 1, 1, 1)) == 2
    assert ssyt_count((1, 1, 1), (2, 1)) == 0
    assert ssyt_count((), ()) == 1


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
        verify_decomposition(n, 3)
    assert calls and len(calls) == len(set(calls))
    system = build_schur_system(5, 3)
    assert system.matrix("QS", "M") is system.matrix("QS", "M")
    assert system.matrix("M", "QS") is system.matrix("M", "QS")


def test_omega_report_small():
    assert verify_omega(8, 4).passed


def test_order_convention_report():
    report = order_convention_report(5, (2, 3))
    assert report["palindromic_ok"]
    # The two reading orders genuinely differ on non-palindromic contents.
    assert any(content != content[::-1] for _, _, content, _, _ in report["divergences"])
    for _, _, content, paper_count, pieri_count in report["divergences"]:
        assert content != content[::-1]
        assert paper_count != pieri_count


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
