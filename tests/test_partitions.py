from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from core_scan import hook_row_counts, scan_bounded_to_core, scan_k_conjugate
from core_transpose import core_transpose_conjugate
from kschur import DomainError, labels, partitions
from kschur.compositions import comp_pieri_targets
from kschur.labels import check_partition, partitions_of
from kschur.partitions import (
    bounded_to_core,
    column_chains,
    contains,
    core_search_oracle,
    core_to_bounded,
    dominance_leq,
    hook_lengths,
    is_core,
    is_horizontal_k_strip,
    is_horizontal_strip,
    is_vertical_strip,
    k_conjugate,
    k_pieri_targets,
    partition_covers,
    transpose,
)


@st.composite
def bounded_partitions(draw, max_len=5, max_part=5):
    k = draw(st.integers(1, max_part))
    parts = draw(st.lists(st.integers(1, k), max_size=max_len))
    return tuple(sorted(parts, reverse=True)), k


@st.composite
def partitions_up_to(draw, size):
    cap = draw(st.integers(1, size))
    parts, left = [], draw(st.integers(0, size))
    while left:
        parts.append(draw(st.integers(1, min(cap, left))))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def test_check_partition_rejects_bad_input():
    with pytest.raises(DomainError):
        check_partition((0, 1))
    with pytest.raises(DomainError):
        check_partition((1, 2))
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()
    assert [(p, type(p)) for p in check_partition([3, True])] == [(3, int), (1, int)]  # a bool is an int


@pytest.mark.parametrize("part", [2.7, 2.0, Fraction(4, 2), Decimal(2), "2"])
def test_check_partition_refuses_a_part_that_is_not_an_int(part):
    """A float, Fraction, Decimal or str part is refused, not rounded to an
    int, and so is such a part of a label read through the checker."""
    with pytest.raises(TypeError):
        check_partition((3, part))
    with pytest.raises(TypeError):
        bounded_to_core((3, part), 3)


def test_hook_lengths_small():
    assert hook_lengths((1,)) == {(1, 1): 1}
    assert hook_lengths((2, 1)) == {(1, 1): 3, (1, 2): 1, (2, 1): 1}
    assert hook_lengths((3, 1)) == {(1, 1): 4, (1, 2): 2, (1, 3): 1, (2, 1): 1}


def test_is_core():
    assert not is_core((2, 1), 3)
    assert not is_core((3, 1), 4)  # hooks {4,2,1,1}
    assert is_core((4, 1), 4)  # hooks {5,3,2,1,1}
    assert is_core((), 7)
    with pytest.raises(DomainError):
        is_core((1,), 1)


def test_is_core_matches_hook_lengths():
    for n in range(15):
        for lam in partitions_of(n):
            hooks = set(hook_lengths(lam).values())
            for t in range(2, 17):
                assert is_core(lam, t) == (t not in hooks), (lam, t)


@settings(max_examples=200, deadline=None)
@given(partitions_up_to(40), st.integers(2, 42))
def test_larger_is_core_matches_hook_lengths(lam, t):
    assert is_core(lam, t) == (t not in hook_lengths(lam).values())


def test_core_to_bounded_examples():
    assert core_to_bounded((3, 1), 2) == (2, 1)
    assert core_to_bounded((1,), 4) == (1,)
    assert core_to_bounded((2, 1, 1, 1), 3) == (1, 1, 1, 1)
    assert core_to_bounded([2, 2], None) == (2, 2)  # the checked partition
    with pytest.raises(DomainError):
        core_to_bounded((1, 2), None)
    with pytest.raises(DomainError):
        core_to_bounded((2, 1), 2)  # hook 3 present, not a 3-core
    with pytest.raises(DomainError):
        core_to_bounded((1,), 0)


def test_core_to_bounded_builds_no_hook_table(monkeypatch):
    """The row counts come from the first-column hooks alone."""

    def refuse(lam):
        raise AssertionError(f"core_to_bounded read every hook of {lam}")

    monkeypatch.setattr(partitions, "hook_lengths", refuse)
    assert core_to_bounded((3, 1), 2) == (2, 1)
    assert core_to_bounded(bounded_to_core((3, 3, 2, 1, 1), 3), 3) == (3, 3, 2, 1, 1)
    with pytest.raises(DomainError, match="is not a 3-core"):
        core_to_bounded((2, 1), 2)


def test_is_k_bounded_reads_every_part():
    # Compositions share the check, so it may not read only the first part.
    assert not labels.is_k_bounded((1, 3), 2)
    assert labels.is_k_bounded((2, 1), 2)
    assert labels.is_k_bounded((), 1)
    assert labels.is_k_bounded((7, 9), None)


def test_bounded_to_core_examples():
    assert bounded_to_core((2, 1), 2) == (3, 1)
    assert bounded_to_core((1, 1, 1, 1), 3) == (2, 1, 1, 1)
    assert bounded_to_core((2,), 2) == (2,)
    assert bounded_to_core((2,), 5) == (2,)
    assert bounded_to_core([3, 1, 1], None) == (3, 1, 1)  # the checked partition
    with pytest.raises(DomainError):
        bounded_to_core((3, 1), 2)


@pytest.mark.parametrize("k", [None, 1, 3])
@pytest.mark.parametrize("lam", [(1, 2), (0,), (2, -1)])
def test_bounded_to_core_rejects_a_non_partition_for_every_k(lam, k):
    """Unbounded k is the identity on partitions only, as in the oracle."""
    for func in (bounded_to_core, core_search_oracle):
        with pytest.raises(DomainError, match="partition parts"):
            func(lam, k)


@pytest.mark.parametrize(
    "func, args",
    [
        (k_conjugate, ((1, 3), None)),
        (k_pieri_targets, ((1, 2), 1, None)),
        (comp_pieri_targets, ((0, 1), 1, None)),
        (hook_lengths, ((1, 3),)),
    ],
    ids=["k_conjugate", "k_pieri_targets", "comp_pieri_targets", "hook_lengths"],
)
def test_unbounded_k_checks_its_label_as_finite_k_does(func, args):
    """At k = None each label is checked as at finite k, and hook_lengths,
    which takes no k, checks its shape too: a label that is no partition or
    composition raises DomainError, not a result or an IndexError."""
    with pytest.raises(DomainError, match="parts must"):
        func(*args)


def test_k_conjugate_examples():
    assert k_conjugate((2, 1), 2) == (1, 1, 1)
    assert k_conjugate((1, 1, 1), 3) == (3,)
    assert k_conjugate((2, 1), 3) == (2, 1)
    assert k_conjugate((), 4) == ()


def test_k_conjugate_matches_the_core_transpose_oracle():
    """Every k-bounded partition with k <= 6 and n <= 14."""
    cases = [(lam, k) for k in range(1, 7) for n in range(15) for lam in partitions_of(n, k)]
    assert len(cases) > 1000
    for lam, k in cases:
        assert k_conjugate(lam, k) == core_transpose_conjugate(lam, k), (lam, k)


def test_closed_forms_match_the_scan_and_hook_table_oracles():
    """The k-skew offsets, the core and its row counts against the offset
    scan and the per-cell hook table, on every k-bounded partition with
    k <= 6 and n <= 14."""
    cases = [(lam, k) for k in range(1, 7) for n in range(15) for lam in partitions_of(n, k)]
    assert len(cases) > 1000
    for lam, k in cases:
        core = bounded_to_core(lam, k)
        assert core == scan_bounded_to_core(lam, k), (lam, k)
        assert k_conjugate(lam, k) == scan_k_conjugate(lam, k), (lam, k)
        assert core_to_bounded(core, k) == hook_row_counts(core, k) == lam, (lam, k)


def test_horizontal_strip_examples():
    assert is_horizontal_strip((2,), ())
    assert not is_horizontal_strip((2, 2), (1, 1))
    assert is_horizontal_strip((2, 2), (2,))
    assert not is_horizontal_strip((1,), (2,))


def test_horizontal_strip_matches_interlacing():
    shapes = [lam for n in range(9) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            expected = len(mu) <= len(lam) and all(
                (lam[i + 1] if i + 1 < len(lam) else 0)
                <= (mu[i] if i < len(mu) else 0)
                <= lam[i]
                for i in range(len(lam))
            )
            assert is_horizontal_strip(lam, mu) == expected


def test_horizontal_k_strip_examples():
    assert not is_horizontal_k_strip((2, 1, 1), (1, 1, 1), 3)
    assert is_horizontal_k_strip((2, 2), (2,), 3)
    assert is_horizontal_k_strip((2, 1), (2, 1), 3)
    with pytest.raises(DomainError):
        is_horizontal_k_strip((4, 1), (1,), 3)


def test_k_pieri_targets_examples():
    assert k_pieri_targets((1, 1, 1), 1, 3) == ((1, 1, 1, 1),)
    assert k_pieri_targets((), 2, 3) == ((2,),)
    assert k_pieri_targets((), 1, 5) == ((1,),)
    with pytest.raises(ValueError):
        k_pieri_targets((1,), 4, 3)
    with pytest.raises(ValueError):
        k_pieri_targets((1,), 0, 3)


def _filtered_targets(lam, i, k):
    """Filter-based oracle: every k-bounded partition i cells larger that
    forms a horizontal k-strip over lam."""
    return tuple(
        sorted(
            mu
            for mu in partitions_of(sum(lam) + i, k)
            if is_horizontal_k_strip(mu, lam, k)
        )
    )


def test_k_pieri_targets_match_filter_oracle():
    for k in (1, 2, 3, 4, None):
        for i in range(1, min(k or 4, 4) + 1):
            for n in range(9 - i):
                for lam in partitions_of(n, k):
                    assert k_pieri_targets(lam, i, k) == _filtered_targets(
                        lam, i, k
                    ), (lam, i, k)


def test_unbounded_k_pieri_targets_need_no_filter():
    # At k = None k_pieri_targets skips the k-conjugate test; the filter
    # it skips drops nothing.
    for n in range(10):
        for lam in partitions_of(n):
            for i in range(1, 11 - n):
                strips = column_chains(lam, i, partition_covers, None)
                kept = [mu for mu in strips if is_vertical_strip(k_conjugate(mu, None), k_conjugate(lam, None))]
                assert k_pieri_targets(lam, i, None) == tuple(sorted(kept)) == tuple(sorted(strips))


def test_column_chains_are_the_strips_once_each():
    for n in range(9):
        for lam in partitions_of(n):
            for i in range(1, 11 - n):
                chains = column_chains(lam, i, partition_covers, None)
                assert len(set(chains)) == len(chains)
                assert set(chains) == {
                    mu for mu in partitions_of(n + i) if is_horizontal_strip(mu, lam)
                }


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_larger_k_pieri_targets_match_filter_oracle(data):
    k = data.draw(st.sampled_from([2, 3, 4, 5, None]))
    i = data.draw(st.integers(1, min(k or 5, 5)))
    n = data.draw(st.integers(9 - i, 16 - i))
    lam = data.draw(st.sampled_from(partitions_of(n, k)))
    assert k_pieri_targets(lam, i, k) == _filtered_targets(lam, i, k)


def test_dominance():
    assert dominance_leq((1, 1, 1, 1), (2, 1, 1))
    assert dominance_leq((2, 2), (3, 1))
    assert dominance_leq((2, 2), (2, 2))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


@given(bounded_partitions())
def test_k_conjugate_is_size_preserving_involution(data):
    lam, k = data
    conj = k_conjugate(lam, k)
    assert sum(conj) == sum(lam)
    assert k_conjugate(conj, k) == lam


@given(bounded_partitions())
def test_core_round_trip(data):
    lam, k = data
    core = bounded_to_core(lam, k)
    assert is_core(core, k + 1)
    assert core_to_bounded(core, k) == lam


def test_core_bijectivity_small():
    for k in range(1, 6):
        for n in range(11):
            cores = {bounded_to_core(lam, k) for lam in partitions_of(n, k)}
            assert len(cores) == len(partitions_of(n, k))


def test_large_k_conjugate_is_transpose():
    for n in range(9):
        for lam in partitions_of(n):
            for k in (n, n + 1, n + 3):
                if k >= 1:
                    assert k_conjugate(lam, k) == transpose(lam)


def test_large_k_strip_is_plain_strip():
    shapes = [lam for n in range(8) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            assert is_horizontal_k_strip(lam, mu, 8) == is_horizontal_strip(lam, mu)


def test_single_cell_k_strip_moves_single_conjugate_cell():
    for k in (2, 3, 4):
        for n in range(9):
            for mu in partitions_of(n, k):
                for lam in k_pieri_targets(mu, 1, k):
                    diff = [
                        a - b
                        for a, b in zip(
                            k_conjugate(lam, k),
                            k_conjugate(mu, k) + (0,) * len(k_conjugate(lam, k)),
                        )
                    ]
                    assert sum(diff) == 1 and all(d in (0, 1) for d in diff)


def test_core_search_oracle_agrees_with_construction():
    for k in range(1, 6):
        for n in range(9):
            for lam in partitions_of(n, k):
                assert core_search_oracle(lam, k) == (bounded_to_core(lam, k),)


def test_core_search_oracle_domain():
    """The oracle follows bounded_to_core: k=None is the identity and a
    part above k is a domain error."""
    assert core_search_oracle((2, 1), None) == ((2, 1),)
    assert core_search_oracle((), None) == ((),)
    with pytest.raises(DomainError):
        core_search_oracle((3,), 2)
    with pytest.raises(DomainError):
        core_search_oracle((2, 2, 1), 1)


def test_core_search_core_tests_grown_candidates_once_per_k(monkeypatch):
    calls = []

    def counting(lam, t):
        calls.append(lam)
        return is_core(lam, t)

    monkeypatch.setattr(partitions, "is_core", counting)
    partitions._core_profile_index.cache_clear()
    for n in range(8):
        for lam in partitions_of(n, 3):
            core_search_oracle(lam, 3)
    # the largest window, 7 + 7 * 6 / 2 = 28, holds 18460 partitions; only
    # a first row on a smaller 4-core is tested, the empty partition included
    assert len(calls) == len(set(calls)) == 882
    calls.clear()
    for n in range(8):
        for lam in partitions_of(n, 3):
            core_search_oracle(lam, 3)
    assert calls == []


def test_core_generation_matches_brute_force():
    """Slow oracle for the generated index: filter every partition of each
    size in the k = 3, n = 7 window through is_core, and count each core's
    hook <= k cells per row from its hook table."""
    for t in range(2, 8):
        for size in range(29):
            index = partitions._core_profile_index(t - 1, size)
            for profile, cores in index.items():
                for kappa in cores:
                    assert core_to_bounded(kappa, t - 1) == hook_row_counts(kappa, t - 1) == profile, kappa
            generated = sorted((kappa for cores in index.values() for kappa in cores), reverse=True)
            assert generated == [lam for lam in partitions_of(size) if is_core(lam, t)], (t, size)


def test_partitions_of_matches_multiset_oracle():
    for k in (1, 2, 3, 5, None):
        for n in range(13):
            top = n if k is None else min(n, k)
            multisets = {
                parts
                for length in range(n + 1)
                for parts in combinations_with_replacement(range(top, 0, -1), length)
                if sum(parts) == n
            }
            assert partitions_of(n, k) == tuple(sorted(multisets, reverse=True)), (n, k)


def test_partitions_of_large_degree_iterates():
    assert partitions_of(3000, 1) == ((1,) * 3000,)
    assert partitions_of(3000, 0) == ()
    assert len(partitions_of(3000, 2)) == 1501


def test_partitions_of_order_and_bound():
    assert partitions_of(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for lam in partitions_of(7, 3):
        assert sum(lam) == 7
        assert max(lam) <= 3
        assert contains(lam, ())
