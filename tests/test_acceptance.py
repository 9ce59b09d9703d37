"""Acceptance suite: one test per criterion, exact integer equality
throughout, each printing a single pass/fail line (run with -s to see the
lines while green)."""

import time
from contextlib import contextmanager

from kschur.algebra import pairing
from kschur.bases import (
    build_kschur_system,
    build_schur_system,
    negativity_search,
    ssyt_count,
    verify_decomposition,
    verify_omega,
    verify_projection,
)
from kschur.labels import enumerate_compositions, partitions_of, sort_to_partition
from kschur.systems import kostka, kostka_chains

from golden_appendix import NS_TO_H, QS_TO_M
from sparse_rows import dense


@contextmanager
def criterion(number, name):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - started:.2f}s)")


def test_criterion_1_appendix_reproduction():
    with criterion(1, "appendix-reproduction"):
        for golden, pick in ((NS_TO_H, ("S", "H")), (QS_TO_M, ("QS", "M"))):
            for (k, n), (labels, rows) in golden.items():
                system = build_schur_system(n, k)
                built = system.matrix(*pick)
                assert list(built.row_labels) == labels
                assert list(built.col_labels) == labels
                assert dense(built) == rows
        # the two rows called out explicitly
        system = build_schur_system(4, 3)
        assert dense(system.matrix("QS", "M"))[system.labels.index((2, 2))] == [0, 0, 1, 1, 1, 1, 2]
        assert dense(system.S_to_H)[system.labels.index((1, 1, 1, 1))] == [0, 1, 0, 0, -1, -1, 1]


def test_criterion_2_worked_example():
    with criterion(2, "worked-example"):
        assert kostka((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper") == 2
        chains = kostka_chains((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper")
        assert set(chains) == {
            ((), (1,), (1, 1), (2, 1, 1), (3, 1, 1), (1, 3, 1, 1)),
            ((), (1,), (1, 1), (2, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)),
        }


def test_criterion_3_duality():
    with criterion(3, "duality"):
        for k in (2, 3, 4):
            for n in range(8):
                system = build_schur_system(n, k)
                for alpha in system.labels:
                    qs = system.expand("QS", alpha, "M")
                    for beta in system.labels:
                        s_in_h = system.expand("S", beta, "H")
                        assert pairing(qs, s_in_h) == (1 if alpha == beta else 0)


def test_criterion_4_stabilization():
    with criterion(4, "stabilization"):
        for n in range(7):
            reference = build_schur_system(n, None)
            pref = build_kschur_system(n, None)
            for k in (n, n + 1, n + 2):
                assert build_schur_system(n, k).labels == reference.labels
                assert dense(build_schur_system(n, k).matrix("H", "S")) == dense(reference.matrix("H", "S"))
                assert build_kschur_system(n, k).labels == pref.labels
                assert dense(build_kschur_system(n, k).matrix("h", "s")) == dense(pref.matrix("h", "s"))
            for lam in partitions_of(n):
                for beta in reference.labels:
                    class_sum = sum(
                        reference.matrix("QS", "M").entry(alpha, beta)
                        for alpha in reference.labels
                        if sort_to_partition(alpha) == lam
                    )
                    assert class_sum == ssyt_count(lam, sort_to_partition(beta))


def test_criterion_5_projection_and_decomposition():
    with criterion(5, "projection-and-decomposition"):
        for k in (2, 3):
            for n in range(7):
                assert verify_projection(n, k).passed
                assert verify_decomposition(n, k).passed


def test_criterion_6_omega_involution_and_core_bijection():
    with criterion(6, "omega-involution-and-core-bijection"):
        report = verify_omega(10, 5)
        assert report.passed, [c.detail for c in report.cases if not c.passed]


def test_criterion_7_negativity():
    with criterion(7, "negativity"):
        for k in (2, 3):
            found = negativity_search(8, k)
            assert found["product"], f"no negative structure constant for k={k}"
            assert found["classical"], f"no negative classical expansion for k={k}"
            alpha, beta, gamma, value = found["product"][0]
            print(
                f"  negativity witness (product, k={k}): "
                f"S{list(alpha)} * S{list(beta)} has coefficient {value} at S{list(gamma)}"
            )
            alpha, gamma, value = found["classical"][0]
            print(
                f"  negativity witness (classical, k={k}): "
                f"S^({k}){list(alpha)} has coefficient {value} at S{list(gamma)}"
            )


def test_criterion_8_dimensions():
    with criterion(8, "dimension-checks"):
        assert len(build_schur_system(4, 2).labels) == 5
        assert len(build_schur_system(4, 3).labels) == 7
        for k in (2, 3, 4, None):
            for n in range(8):
                expected = len(enumerate_compositions(n, k))
                assert len(build_schur_system(n, k).labels) == expected
                assert len(build_schur_system(n, k).matrix("H", "S").cols) == expected


def test_criterion_9_order_convention_report():
    with criterion(9, "order-convention-report"):
        # Palindromic contents (including the worked example) always agree.
        for k in (2, 3):
            for n in range(7):
                labels = enumerate_compositions(n, k)
                for content in (c for c in labels if c == c[::-1]):
                    for shape in labels:
                        assert kostka(shape, content, k, "composition", "paper") == kostka(
                            shape, content, k, "composition", "pieri"
                        ), (k, shape, content)
        assert kostka((1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "paper") == kostka(
            (1, 3, 1, 1), (1, 1, 2, 1, 1), 3, "composition", "pieri"
        )
        # The two readings differ on a non-palindromic content.  Front to
        # back, the strips of sizes 2 and 1 reach [2], then [1,2]; back to
        # front, [1] is reached first, and its one strip of size 2 is [2,1].
        assert kostka((1, 2), (2, 1), 2, "composition", "paper") == 1
        assert kostka((1, 2), (2, 1), 2, "composition", "pieri") == 0
        # The printed tables follow the Pieri reading (content back to front).
        for (k, n), (labels, rows) in QS_TO_M.items():
            for r, alpha in enumerate(labels):
                for c, beta in enumerate(labels):
                    assert rows[r][c] == kostka(alpha, beta, k, "composition", "pieri")
