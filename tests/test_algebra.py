import pytest
from hypothesis import given, settings, strategies as st

from gauss_jordan import invert_integer_matrix
from kschur import DomainError
from kschur.algebra import (
    BasisMatrix,
    H_product,
    LinearCombination,
    M_quasi_shuffle,
    chi_project,
    h_product,
    pairing,
)
from kschur.bases import build_kschur_system, build_schur_system

words = st.lists(st.integers(1, 3), max_size=3).map(tuple)


def H(index, k=None, coeff=1):
    return LinearCombination.single("H", index, k, coeff)


def M(index, k=None, coeff=1):
    return LinearCombination.single("M", index, k, coeff)


def h(index, k=None, coeff=1):
    return LinearCombination.single("h", index, k, coeff)


def test_combination_drops_zeros_and_mixes_raise():
    assert LinearCombination("H", None, {(2,): 0}).is_zero()
    with pytest.raises(DomainError):
        H((2,)) + LinearCombination.single("M", (2,), None)
    with pytest.raises(DomainError):
        H((2,), k=2) + H((2,), k=3)
    assert H((2,)) - H((2,)) == LinearCombination.zero("H", None)


def test_bounded_combinations_reject_tall_indices():
    with pytest.raises(DomainError):
        LinearCombination.single("H", (3, 1), 2)
    assert LinearCombination.single("H", (3, 1), 3).coefficient((3, 1)) == 1


def test_h_product_examples():
    assert h_product(h((2,)), h((1,))) == h((2, 1))
    assert h_product(h((1,)), h((1,))) == h((1, 1))
    assert h_product(h((2,)) + h((1, 1)), h((1,))) == h((2, 1)) + h((1, 1, 1))


def test_H_product_examples():
    assert H_product(H((2,)), H((1,))) == H((2, 1))
    assert H_product(H((1,)), H((2,))) == H((1, 2))
    assert H_product(H((1, 2)), H(())) == H((1, 2))
    assert H_product(H((2,)), H((1,))) != H_product(H((1,)), H((2,)))


def test_quasi_shuffle_examples():
    assert M_quasi_shuffle(M((1,)), M((1,))) == M((1, 1), coeff=2) + M((2,))
    assert M_quasi_shuffle(M((1,), k=1), M((1,), k=1)) == M((1, 1), k=1, coeff=2)
    assert M_quasi_shuffle(M(()), M((2, 1))) == M((2, 1))


@given(words, words)
def test_quasi_shuffle_commutative(x, y):
    assert M_quasi_shuffle(M(x), M(y)) == M_quasi_shuffle(M(y), M(x))


@settings(max_examples=40)
@given(words, words, words)
def test_quasi_shuffle_associative(x, y, z):
    left = M_quasi_shuffle(M_quasi_shuffle(M(x), M(y)), M(z))
    right = M_quasi_shuffle(M(x), M_quasi_shuffle(M(y), M(z)))
    assert left == right


@settings(max_examples=40)
@given(words, words, words)
def test_H_product_associative(x, y, z):
    assert H_product(H_product(H(x), H(y)), H(z)) == H_product(H(x), H_product(H(y), H(z)))


@settings(max_examples=40)
@given(words, words, words)
def test_h_product_associative_commutative(x, y, z):
    hx, hy, hz = (h(tuple(sorted(w, reverse=True))) for w in (x, y, z))
    assert h_product(hx, hy) == h_product(hy, hx)
    assert h_product(h_product(hx, hy), hz) == h_product(hx, h_product(hy, hz))


@given(words, words)
def test_quotient_ideal_soundness(x, y):
    # A product with a factor containing a part above k only produces
    # terms containing a part above k, so the quotient discards a full ideal.
    k = 2
    tall = (k + 1,) + x
    product = M_quasi_shuffle(M(tall), M(y))
    for index, _ in product.terms():
        assert any(p > k for p in index)


def test_pairing_examples():
    assert pairing(M((2, 1)), H((2, 1))) == 1
    assert pairing(M((2, 1)), H((1, 2))) == 0
    m_side = LinearCombination.single("m", (2, 1), 3)
    h_side = LinearCombination.single("h", (2, 1), 3, coeff=5)
    assert pairing(m_side, h_side) == 5
    combo = M((2, 2)) + M((2, 1, 1)) + M((1, 2, 1)) + M((1, 1, 2)) + M((1, 1, 1, 1), coeff=2)
    assert pairing(combo, H((1, 1, 1, 1))) == 2
    with pytest.raises(DomainError):
        pairing(H((2,)), M((2,)))
    with pytest.raises(DomainError):
        pairing(M((2,), k=2), H((2,), k=3))


def test_chi_project_examples():
    assert chi_project(H((1, 3, 1))) == h((3, 1, 1))
    assert chi_project(H((2, 1)) - H((1, 2))).is_zero()
    assert chi_project(H((2,)) + H((1, 1))) == h((2,)) + h((1, 1))


@settings(max_examples=40)
@given(words, words)
def test_chi_is_an_algebra_map(x, y):
    left = chi_project(H_product(H(x), H(y)))
    right = h_product(chi_project(H(x)), chi_project(H(y)))
    assert left == right


def forward_inverse(rows):
    """BasisMatrix.inverse on a bare integer matrix with positional labels."""
    width = len(rows[0]) if rows else 0
    matrix = BasisMatrix(
        n=0, k=None, source_kind="H", target_kind="S",
        row_labels=tuple((i,) for i in range(len(rows))),
        col_labels=tuple((j,) for j in range(width)),
        rows=tuple(tuple(r) for r in rows),
    )
    return [list(r) for r in matrix.inverse().rows]


def test_invert_examples():
    for invert in (invert_integer_matrix, forward_inverse):
        assert invert([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
        assert invert([[1, 0], [1, 1]]) == [[1, 0], [-1, 1]]
        with pytest.raises(DomainError):
            invert([[1, 1], [1, 1]])
        with pytest.raises(DomainError):
            invert([[2]])
    # Invertible, but not lower unitriangular: only the oracle accepts it.
    assert invert_integer_matrix([[1, 1], [0, 1]]) == [[1, -1], [0, 1]]
    for bad in ([[1, 1], [0, 1]], [[1, 0], [0, -1]], [[1, 0]]):
        with pytest.raises(DomainError):
            forward_inverse(bad)


def test_invert_round_trip():
    matrix = [[1, 0, 0, 0], [-1, 1, 0, 0], [-1, 0, 1, 0], [1, -1, -1, 1]]
    n = len(matrix)
    for invert in (invert_integer_matrix, forward_inverse):
        inverse = invert(matrix)
        product = [
            [sum(matrix[i][t] * inverse[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def lower_unitriangular(draw):
    d = draw(st.integers(0, 12))
    below = iter(draw(st.lists(st.integers(-5, 5), min_size=d * (d - 1) // 2,
                               max_size=d * (d - 1) // 2)))
    return [[next(below) if j < i else int(i == j) for j in range(d)] for i in range(d)]


@settings(max_examples=60)
@given(lower_unitriangular())
def test_forward_inverse_matches_oracle(matrix):
    assert forward_inverse(matrix) == invert_integer_matrix(matrix)


@settings(max_examples=40)
@given(lower_unitriangular().filter(len), st.data())
def test_forward_inverse_rejects_broken_triangle(matrix, data):
    d = len(matrix)
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.integers(i, d - 1))
    matrix[i][j] = data.draw(st.integers(-5, 5).filter(lambda v: v != int(i == j)))
    with pytest.raises(DomainError):
        forward_inverse(matrix)


@pytest.mark.parametrize("k", [2, 3, 4, None])
def test_pieri_matrix_inverses_match_oracle(k):
    for n in range(8):
        for forward in (build_schur_system(n, k).matrix("H", "S"), build_kschur_system(n, k).matrix("h", "s")):
            inverse = forward.inverse()
            assert inverse.row_labels == forward.col_labels
            assert inverse.col_labels == forward.row_labels
            expected = invert_integer_matrix([list(r) for r in forward.rows])
            assert [list(r) for r in inverse.rows] == expected


def labelled(rows, row_count, col_count, source="S", target="H"):
    """rows as a BasisMatrix whose labels are (0,), (1,), ... on both sides."""
    return BasisMatrix(
        n=0, k=None, source_kind=source, target_kind=target,
        row_labels=tuple((i,) for i in range(row_count)),
        col_labels=tuple((j,) for j in range(col_count)),
        rows=tuple(tuple(row) for row in rows),
    )


@st.composite
def sparse_matrix(draw, row_count, col_count):
    """An integer matrix with at least one zero row and one zero column
    whenever it has a row and a column to zero."""
    rows = [draw(st.lists(st.integers(-3, 3), min_size=col_count, max_size=col_count))
            for _ in range(row_count)]
    if row_count and col_count:
        zero_row = draw(st.integers(0, row_count - 1))
        zero_col = draw(st.integers(0, col_count - 1))
        rows = [[0 if i == zero_row or j == zero_col else v for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows


@settings(max_examples=60)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_naive_product(m, p, q, data):
    left = data.draw(sparse_matrix(m, p))
    right = data.draw(sparse_matrix(p, q))
    naive = tuple(
        tuple(sum(left[i][t] * right[t][j] for t in range(p)) for j in range(q))
        for i in range(m)
    )
    assert tuple(labelled(left, m, p).matmul(labelled(right, p, q, "H", "S"))) == naive


def test_matmul_refuses_mismatched_labels():
    left = labelled([[1, 0], [0, 1]], 2, 2)
    right = BasisMatrix(
        n=0, k=None, source_kind="H", target_kind="S",
        row_labels=((1,), (0,)), col_labels=((0,), (1,)), rows=((1, 0), (0, 1)),
    )
    with pytest.raises(ValueError, match="label mismatch"):
        left.matmul(right)
    with pytest.raises(ValueError, match="label mismatch"):
        left.matmul(labelled([[1, 0, 0]], 1, 3, "H", "S"))


def test_missing_label_lookups_name_the_label():
    labels = ((2,), (1, 1))
    matrix = BasisMatrix(
        n=2, k=None, source_kind="H", target_kind="S",
        row_labels=labels, col_labels=labels, rows=((1, 0), (1, 1)),
    )
    with pytest.raises(DomainError, match=r"\(3,\)"):
        matrix.entry((3,), (2,))
    with pytest.raises(DomainError, match=r"\(1, 2\)"):
        matrix.entry((2,), (1, 2))
    with pytest.raises(DomainError, match=r"\(1, 2\)"):
        matrix.expand(H((1, 1)) + H((1, 2)))
    assert matrix.entry((1, 1), (2,)) == 1


def test_terms_are_sorted_and_exact():
    combo = H((3,)) + H((1, 2), coeff=-1) + H((1, 1, 1), coeff=10**30)
    assert combo.terms() == (
        ((1, 1, 1), 10**30),
        ((1, 2), -1),
        ((3,), 1),
    )
