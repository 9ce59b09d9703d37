from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from forward_substitution import forward_substitution
from gauss_jordan import invert_integer_matrix
from kschur import DomainError, algebra, cli
from kschur.algebra import (
    BasisMatrix,
    H_product,
    LinearCombination,
    M_quasi_shuffle,
    chi_project,
    h_product,
    packed,
    pairing,
)
from kschur.bases import build_kschur_system, build_schur_system
from sparse_rows import dense, sparse

words = st.lists(st.integers(1, 3), max_size=3).map(tuple)


def H(index, k=None, coeff=1):
    return LinearCombination.single("H", index, k, coeff)


def M(index, k=None, coeff=1):
    return LinearCombination.single("M", index, k, coeff)


def h(index, k=None, coeff=1):
    return LinearCombination.single("h", index, k, coeff)


@pytest.mark.parametrize("coeff", [2.7, 0.4, 2.0, Fraction(5, 2), Fraction(4, 2), Decimal(3), "3"])
def test_combination_refuses_a_coefficient_that_is_not_an_int(coeff):
    """A float, Fraction, Decimal or str is refused, not rounded to an int
    (or, below 1, silently dropped as a zero term)."""
    with pytest.raises(TypeError):
        LinearCombination("H", None, {(1,): coeff})
    with pytest.raises(TypeError):
        H((1,), coeff=coeff)


def test_combination_takes_int_and_bool_coefficients():
    combo = LinearCombination("H", None, {(1,): True, (2,): False, (1, 1): -(2**70)})
    assert combo.terms() == (((1,), 1), ((1, 1), -(2**70)))
    assert all(type(c) is int for _, c in combo.terms())


def test_combination_drops_zeros_and_mixes_raise():
    assert LinearCombination("H", None, {(2,): 0}).is_zero()
    with pytest.raises(DomainError):
        H((2,)) + LinearCombination.single("M", (2,), None)
    with pytest.raises(DomainError):
        H((2,), k=2) + H((2,), k=3)
    assert H((2,)) - H((2,)) == LinearCombination.zero("H", None)


def test_combination_refuses_an_unknown_kind():
    with pytest.raises(DomainError, match="^unknown basis kind 'X'$"):
        LinearCombination("X", None, {(1,): 1})


@pytest.mark.parametrize("scalar", [2.0, 0.5])
def test_combination_refuses_a_float_scalar_on_either_side(scalar):
    with pytest.raises(TypeError):
        H((2, 1)) * scalar
    with pytest.raises(TypeError):
        scalar * H((2, 1))
    assert 3 * H((2, 1)) == H((2, 1)) * 3 == H((2, 1), coeff=3)


def test_equal_combinations_hash_equal():
    """Combinations equal as terms hash equal, however they were built, so
    they collapse to one set element."""
    built = LinearCombination("h", 3, {(2, 1): 2, (1, 1, 1): 0, (3,): -1})
    summed = h((2, 1), k=3) + h((3,), k=3, coeff=-1) + h((2, 1), k=3)
    assert built == summed and hash(built) == hash(summed)
    assert len({built, summed, h((2, 1), k=3)}) == 2


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


def evaluate_M(alpha, point):
    """The monomial quasi-symmetric function M_alpha at point: the sum over
    i_1 < ... < i_l of the products point[i_j] ** alpha[j]."""
    sums = [1] + [0] * len(alpha)  # sums[j]: the sum for the first j parts
    for v in point:
        for j in range(len(alpha), 0, -1):
            sums[j] += sums[j - 1] * v ** alpha[j - 1]
    return sums[-1]


@given(words, words, st.data())
def test_quasi_shuffle_matches_evaluation(x, y, data):
    """In at least len(x) + len(y) variables, where the M_w of the product
    are independent, M_x M_y evaluated at an integer point equals the
    evaluation of the quasi-shuffle product.  A plain shuffle, without the
    merged parts, is also associative and commutative, but fails this."""
    size = len(x) + len(y)
    point = data.draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size + 2))
    product = M_quasi_shuffle(M(x), M(y))
    assert evaluate_M(x, point) * evaluate_M(y, point) == sum(c * evaluate_M(w, point) for w, c in product.terms())


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


def test_products_and_projection_refuse_another_kind():
    """chi takes H words only, and h_product h words only."""
    with pytest.raises(DomainError, match="^expected kind 'H', got 'h'$"):
        chi_project(h((2, 1)))
    with pytest.raises(DomainError, match="^expected kind 'h', got 'H'$"):
        h_product(H((2,)), H((1,)))


@settings(max_examples=40)
@given(words, words)
def test_chi_is_an_algebra_map(x, y):
    left = chi_project(H_product(H(x), H(y)))
    right = h_product(chi_project(H(x)), chi_project(H(y)))
    assert left == right


def forward_inverse(rows):
    """forward_substitution on a bare integer matrix with positional labels."""
    width = len(rows[0]) if rows else 0
    matrix = BasisMatrix(
        n=0, k=None, source_kind="H", target_kind="S",
        row_labels=tuple((i,) for i in range(len(rows))),
        col_labels=tuple((j,) for j in range(width)),
        **sparse(rows),
    )
    return dense(forward_substitution(matrix))


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
            inverse = forward_substitution(forward)
            assert inverse.row_labels == forward.col_labels
            assert inverse.col_labels == forward.row_labels
            assert dense(inverse) == invert_integer_matrix(dense(forward))


def labelled(rows, row_count, col_count, source="S", target="H"):
    """rows as a BasisMatrix whose labels are (0,), (1,), ... on both sides."""
    return BasisMatrix(
        n=0, k=None, source_kind=source, target_kind=target,
        row_labels=tuple((i,) for i in range(row_count)),
        col_labels=tuple((j,) for j in range(col_count)),
        **sparse(rows),
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
    naive = sparse(
        [[sum(left[i][t] * right[t][j] for t in range(p)) for j in range(q)] for i in range(m)]
    )
    product = labelled(left, m, p).matmul(labelled(right, p, q, "H", "S"))
    assert [tuple(map(packed, pair)) for pair in product] == list(zip(naive["cols"], naive["vals"]))


@settings(max_examples=60)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_transposed_and_entries_match_dense_rows(m, p, data):
    rows = data.draw(sparse_matrix(m, p))
    matrix = labelled(rows, m, p)
    assert dense(matrix) == rows
    transposed = matrix.transposed("QS", "M")
    assert (transposed.source_kind, transposed.target_kind) == ("QS", "M")
    assert transposed.row_labels == matrix.col_labels and transposed.col_labels == matrix.row_labels
    assert dense(transposed) == [[rows[i][j] for i in range(m)] for j in range(p)]


@pytest.mark.parametrize("band_entries", [1, 5, 64, 1 << 20])
def test_transpose_in_bands_matches_dense_rows(band_entries, monkeypatch):
    """However few nonzeros a pass of the transpose holds, down to one
    column per pass, it gives the dense transpose, every row packed."""
    monkeypatch.setattr(algebra, "_BAND_ENTRIES", band_entries)
    forward = build_schur_system(6, None).matrix("H", "S")
    transposed = forward.transposed("QS", "M")
    assert dense(transposed) == [list(col) for col in zip(*dense(forward))]
    assert all(type(row) is array for row in transposed.cols + transposed.vals)


@pytest.mark.parametrize(
    "row, code",
    [
        ([0, 2**7 - 1, -(2**7)], "b"),
        ([2**7], "h"),
        ([-(2**7) - 1], "h"),
        ([2**15 - 1, -(2**15)], "h"),
        ([2**15], "i"),
        ([-(2**15) - 1], "i"),
        ([2**31 - 1, -(2**31)], "i"),
        ([2**31], "q"),
        ([-(2**31) - 1], "q"),
        ([5, 2**63 - 1, -(2**63)], "q"),
        ([2**7, 0], "h"),
        ([-(2**15) - 1, 1, -1], "i"),
        ([2**31, -5], "q"),
    ],
)
def test_packed_takes_the_narrowest_typecode_that_holds_the_row(row, code):
    for values in (row, tuple(row)):
        row_packed = packed(values)
        assert type(row_packed) is array and row_packed.typecode == code
        assert row_packed.tolist() == row


@pytest.mark.parametrize("row", [[2**63], [-(2**63) - 1], [1, 2**70, -3]])
def test_packed_keeps_a_row_beyond_64_bits_as_a_tuple(row):
    assert type(packed(row)) is tuple and packed(row) == tuple(row)


def test_packed_empty_row():
    assert type(packed([])) is array and len(packed(())) == 0


def test_entry_beyond_64_bits_stays_exact():
    """A row with an entry of 2**70 stays a tuple, survives the transpose
    and is printed with its exact digits."""
    big, width = 2**70, 8
    rows = [[1, 0, big] + [0] * (width - 3), [0] * (width - 1) + [-big]]
    matrix = labelled(rows, 2, width)
    assert type(matrix.vals[0]) is tuple and type(matrix.vals[1]) is tuple and type(matrix.cols[0]) is array
    assert matrix.entry((0,), (2,)) == big
    assert dense(matrix.transposed("QS", "M")) == [list(col) for col in zip(*rows)]
    zeros = b"0," * (width - 3)
    assert list(cli._row_texts(matrix)) == [b"1,0,1180591620717411303424," + zeros[:-1], zeros + b"0,0,-1180591620717411303424"]


def test_matmul_refuses_mismatched_labels():
    left = labelled([[1, 0], [0, 1]], 2, 2)
    right = BasisMatrix(
        n=0, k=None, source_kind="H", target_kind="S",
        row_labels=((1,), (0,)), col_labels=((0,), (1,)), **sparse([[1, 0], [0, 1]]),
    )
    with pytest.raises(ValueError, match="label mismatch"):
        left.matmul(right)
    with pytest.raises(ValueError, match="label mismatch"):
        left.matmul(labelled([[1, 0, 0]], 1, 3, "H", "S"))


@pytest.mark.parametrize(
    "rows, cols, vals",
    [
        (((0,),), ((0,),), ((1,),)),  # one row for two labels
        (((0,), (1,)), ((0, 1), (1,)), ((1,), (1,))),  # a row's cols and vals differ in length
        (((0,), (2,)), ((0,), (2,)), ((1,), (1,))),  # a column past the last label
        (((0,), (-1,)), ((0,), (-1,)), ((1,), (1,))),  # a negative column
        (((1, 0), (1,)), ((1, 0), (1,)), ((1, 1), (1,))),  # columns not increasing
    ],
)
def test_basis_matrix_refuses_a_shape_that_does_not_match_its_labels(rows, cols, vals):
    labels = ((2,), (1, 1))
    with pytest.raises(ValueError, match="^matrix shape does not match labels$"):
        BasisMatrix(2, None, "H", "S", labels, labels, cols, vals)


def test_expand_refuses_another_kind_or_bound():
    labels = ((2,), (1, 1))
    matrix = BasisMatrix(2, None, "H", "S", labels, labels, **sparse([[1, 0], [1, 1]]))
    with pytest.raises(DomainError, match=r"^cannot expand M@k=None through H->S@k=None$"):
        matrix.expand(M((2,)))
    with pytest.raises(DomainError, match=r"^cannot expand H@k=2 through H->S@k=None$"):
        matrix.expand(H((2,), k=2))
    assert matrix.expand(H((1, 1))) == LinearCombination("S", None, {(2,): 1, (1, 1): 1})


def test_missing_label_lookups_name_the_label():
    labels = ((2,), (1, 1))
    matrix = BasisMatrix(
        n=2, k=None, source_kind="H", target_kind="S",
        row_labels=labels, col_labels=labels, **sparse([[1, 0], [1, 1]]),
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
