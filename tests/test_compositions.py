from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from kschur import DomainError
from kschur.compositions import (
    bottom_aligned_contains,
    comp_pieri_targets,
    composition_covers,
    covers_up,
    is_horizontal_comp_strip,
    is_horizontal_k_comp_strip,
)
from kschur.labels import SIDES, check_composition, enumerate_compositions, sort_to_partition
from kschur.partitions import column_chains, is_horizontal_k_strip

compositions = st.lists(st.integers(1, 4), max_size=6).map(tuple)


@lru_cache(maxsize=None)
def leq_c(beta, alpha) -> bool:
    """Oracle: reachability of alpha from beta by a chain of covers.

    Parts never shrink or disappear along a chain, so intermediate
    compositions are pruned to the length of alpha and to its largest part.
    """
    steps = sum(alpha) - sum(beta)
    if steps < 0:
        return False
    if steps == 0:
        return beta == alpha
    bound = max(alpha, default=0)
    if len(beta) > len(alpha) or any(p > bound for p in beta):
        return False
    frontier = {beta}
    for _ in range(steps):
        frontier = {
            gamma
            for b in frontier
            for gamma in covers_up(b, bound)
            if len(gamma) <= len(alpha)
        }
    return alpha in frontier


def test_check_composition():
    assert check_composition([1, 3, 1]) == (1, 3, 1)
    with pytest.raises(DomainError):
        check_composition([1, 0])
    with pytest.raises(DomainError):
        check_composition([4, 1], k=3)
    with pytest.raises(DomainError, match=r"^\(3, 1\) is not 2-bounded$"):
        check_composition((3, 1), 2)
    assert check_composition((1, 2), 2) == (1, 2)
    assert check_composition([True, 2]) == (1, 2)  # a bool is an int


@pytest.mark.parametrize("part", [2.7, 2.0, Fraction(4, 2), Decimal(2), "2"])
def test_check_composition_refuses_a_part_that_is_not_an_int(part):
    """A float, Fraction, Decimal or str part is refused, not rounded to an int."""
    with pytest.raises(TypeError):
        check_composition([part, 1])
    with pytest.raises(TypeError):
        SIDES["composition"].check([1, part])


def test_covers_up_examples():
    assert (1, 3, 1, 1) in covers_up((3, 1, 1))
    assert covers_up(()) == ((1,),)
    assert set(covers_up((1, 2))) == {(1, 1, 2), (2, 2), (1, 3)}
    assert set(covers_up((1, 1))) == {(1, 1, 1), (2, 1)}
    assert set(covers_up((1, 2), bound=2)) == {(1, 1, 2), (2, 2)}


@given(compositions)
def test_covers_add_exactly_one_cell(beta):
    for alpha in covers_up(beta):
        assert sum(alpha) == sum(beta) + 1


def test_leq_c_examples():
    assert leq_c((2,), (1, 3))
    assert not leq_c((1, 1), (1, 3))
    assert leq_c((2, 1), (2, 1))
    assert leq_c((), (2, 2))
    assert not leq_c((3,), (2, 1))


def test_leq_c_implies_bottom_aligned_containment():
    for n_a in range(8):
        for alpha in enumerate_compositions(n_a):
            for n_b in range(n_a + 1):
                for beta in enumerate_compositions(n_b):
                    if leq_c(beta, alpha):
                        assert bottom_aligned_contains(alpha, beta)


def test_horizontal_comp_strip_examples():
    assert not bottom_aligned_contains((1, 2), (3,))
    assert not is_horizontal_comp_strip((1, 2), (3,))  # no containment: False, not an error
    assert is_horizontal_comp_strip((2, 2), (2,))
    assert not is_horizontal_comp_strip((2, 2), (1, 1))
    assert not is_horizontal_comp_strip((1, 3), (1, 1))
    assert is_horizontal_comp_strip((2, 1), (2, 1))


def test_horizontal_comp_strip_blocked_growth():
    # Growing a row is a bump of the leftmost part of its size, so a cell
    # may not extend a row when an equal-length row sits above it.
    assert not is_horizontal_comp_strip((1, 2), (1,))
    assert is_horizontal_comp_strip((2, 1), (1,))
    assert is_horizontal_comp_strip((3,), (1,))
    assert is_horizontal_comp_strip((1, 3), (2,))
    assert not is_horizontal_comp_strip((1, 3), (1,))
    assert not is_horizontal_comp_strip((1, 2, 1), (1, 1))
    assert not is_horizontal_comp_strip((1, 1, 2), (1, 1))
    assert is_horizontal_comp_strip((3, 1), (1, 1))
    assert not is_horizontal_comp_strip((2, 3), (1, 2))


def _strip_oracle(alpha, beta):
    """Independent check: some cover chain from beta to alpha adds its cells
    in strictly increasing column order.  A bump lands in column part+1 of
    the bumped row, a prepend in column 1 of the new top row."""
    steps = sum(alpha) - sum(beta)
    if steps < 0:
        return False
    frontier = {(beta, 0)}
    for _ in range(steps):
        grown = set()
        for gamma, last in frontier:
            if last < 1:
                grown.add(((1,) + gamma, 1))
            seen = set()
            for pos, part in enumerate(gamma):
                if part in seen:
                    continue
                seen.add(part)
                if part + 1 > last:
                    grown.add((gamma[:pos] + (part + 1,) + gamma[pos + 1 :], part + 1))
        frontier = grown
    return any(gamma == alpha for gamma, _ in frontier)


def test_horizontal_comp_strip_matches_column_chain_oracle():
    for n_a in range(8):
        for alpha in enumerate_compositions(n_a):
            for n_b in range(n_a + 1):
                for beta in enumerate_compositions(n_b):
                    assert is_horizontal_comp_strip(alpha, beta) == _strip_oracle(
                        alpha, beta
                    ), (alpha, beta)


def test_horizontal_k_comp_strip_examples():
    assert not is_horizontal_k_comp_strip((2, 1, 1), (1, 1, 1), 3)
    assert is_horizontal_k_comp_strip((1, 3, 1, 1), (3, 1, 1), 3)
    assert is_horizontal_k_comp_strip((2, 1), (2, 1), 3)
    with pytest.raises(DomainError):
        is_horizontal_k_comp_strip((4, 1), (1,), 3)


def test_comp_strips_sort_to_partition_strips():
    # A horizontal composition strip always sorts to a horizontal strip of
    # partitions, which is what makes the projection onto commuting
    # generators work.
    from kschur.partitions import is_horizontal_strip

    for n_a in range(7):
        for alpha in enumerate_compositions(n_a):
            for n_b in range(n_a + 1):
                for beta in enumerate_compositions(n_b):
                    if is_horizontal_comp_strip(alpha, beta):
                        assert is_horizontal_strip(
                            sort_to_partition(alpha), sort_to_partition(beta)
                        )


def test_unbounded_k_strip_agrees_with_plain_strip():
    for n_a in range(7):
        for alpha in enumerate_compositions(n_a):
            for n_b in range(n_a + 1):
                for beta in enumerate_compositions(n_b):
                    assert is_horizontal_k_comp_strip(
                        alpha, beta, None
                    ) == is_horizontal_comp_strip(alpha, beta)
                    assert is_horizontal_k_comp_strip(
                        alpha, beta, 8
                    ) == is_horizontal_comp_strip(alpha, beta)


def test_comp_pieri_targets_examples():
    # One-cell growths of [2,1,1] at k=3: the new top row, the bump of the
    # leftmost 2 and the bump of the leftmost 1 all pass the k-strip check.
    assert comp_pieri_targets((2, 1, 1), 1, 3) == (
        (1, 2, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
    )
    assert comp_pieri_targets((), 2, 3) == ((2,),)
    assert comp_pieri_targets((), 1, None) == ((1,),)
    with pytest.raises(ValueError):
        comp_pieri_targets((1,), 4, 3)
    with pytest.raises(DomainError, match=r"^\(4, 1\) is not 3-bounded$"):
        comp_pieri_targets((1, 4), 1, 3)  # the bound is read from the sorted beta


def test_worked_example_branch_continues_to_final_shape():
    # Of the one-cell growths of [2,1,1], exactly two admit a further
    # one-cell growth reaching [1,3,1,1].
    survivors = [
        gamma
        for gamma in comp_pieri_targets((2, 1, 1), 1, 3)
        if (1, 3, 1, 1) in comp_pieri_targets(gamma, 1, 3)
    ]
    assert survivors == [(1, 2, 1, 1), (3, 1, 1)]


def test_sort_to_partition():
    assert sort_to_partition((1, 3, 1, 1)) == (3, 1, 1, 1)
    assert sort_to_partition(()) == ()
    assert sort_to_partition((2, 1, 2)) == (2, 2, 1)


def test_enumerate_compositions_order():
    assert enumerate_compositions(4, 2) == (
        (2, 2),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (1, 1, 1, 1),
    )
    assert enumerate_compositions(2) == ((2,), (1, 1))
    assert enumerate_compositions(0, 5) == ((),)
    assert enumerate_compositions(4, 3) == (
        (3, 1),
        (1, 3),
        (2, 2),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (1, 1, 1, 1),
    )


def test_enumerate_compositions_matches_cut_oracle():
    """A composition of n is a set of cuts in 1, ..., n - 1."""
    for k in (1, 2, 3, None):
        for n in range(1, 13):
            found = []
            for size in range(n):
                for cuts in combinations(range(1, n), size):
                    ends = (0,) + cuts + (n,)
                    alpha = tuple(b - a for a, b in zip(ends, ends[1:]))
                    if k is None or max(alpha) <= k:
                        found.append(alpha)
            found.sort(key=lambda a: (sort_to_partition(a), a), reverse=True)
            assert enumerate_compositions(n, k) == tuple(found), (n, k)


def test_enumerate_compositions_large_degree_iterates():
    assert enumerate_compositions(3000, 1) == ((1,) * 3000,)


@given(st.integers(1, 8))
def test_unbounded_composition_count(n):
    assert len(enumerate_compositions(n)) == 2 ** (n - 1)


@given(compositions, st.integers(1, 3))
def test_pieri_targets_are_strips(beta, i):
    k = max([i] + [p for p in beta] + [2])
    for alpha in comp_pieri_targets(beta, i, k):
        assert sum(alpha) == sum(beta) + i
        assert is_horizontal_k_comp_strip(alpha, beta, k)
        assert leq_c(beta, alpha)


def _filtered_targets(beta, i, k):
    """Filter-based oracle: every k-bounded composition i cells larger that
    forms a horizontal k-composition strip over beta."""
    return tuple(
        sorted(
            alpha
            for alpha in enumerate_compositions(sum(beta) + i, k)
            if is_horizontal_k_comp_strip(alpha, beta, k)
        )
    )


def test_pieri_targets_match_filter_oracle():
    for k in (1, 2, 3, 4, None):
        for i in range(1, min(k or 4, 4) + 1):
            for n in range(9 - i):
                for beta in enumerate_compositions(n, k):
                    assert comp_pieri_targets(beta, i, k) == _filtered_targets(
                        beta, i, k
                    ), (beta, i, k)


def test_unbounded_pieri_targets_need_no_filter():
    # At k = None comp_pieri_targets skips the sorted-shape test; the
    # filter it skips drops nothing.
    for n in range(10):
        for beta in enumerate_compositions(n):
            for i in range(1, 11 - n):
                strips = column_chains(beta, i, composition_covers, None)
                kept = [
                    a for a in strips
                    if is_horizontal_k_strip(sort_to_partition(a), sort_to_partition(beta), None)
                ]
                assert comp_pieri_targets(beta, i, None) == tuple(sorted(kept)) == tuple(sorted(strips))


def test_column_chains_are_the_comp_strips_once_each():
    for n in range(7):
        for beta in enumerate_compositions(n):
            for i in range(1, 9 - n):
                chains = column_chains(beta, i, composition_covers, None)
                assert len(set(chains)) == len(chains)
                assert set(chains) == {
                    alpha
                    for alpha in enumerate_compositions(n + i)
                    if is_horizontal_comp_strip(alpha, beta)
                }


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_larger_pieri_targets_match_filter_oracle(data):
    k = data.draw(st.sampled_from([2, 3, 4, 5, None]))
    i = data.draw(st.integers(1, min(k or 5, 5)))
    n = data.draw(st.integers(9 - i, 12 - i))
    beta = data.draw(st.sampled_from(enumerate_compositions(n, k)))
    assert comp_pieri_targets(beta, i, k) == _filtered_targets(beta, i, k)


@pytest.mark.parametrize("side", list(SIDES))
def test_label_counts_match_the_enumeration(side):
    """Each side's label counts, by recurrence, against the enumerated labels."""
    for k in (*range(1, 7), None):
        counts = SIDES[side].counts(k)
        assert [next(counts) for _ in range(15)] == [len(SIDES[side].labels(n, k)) for n in range(15)], k
