"""Exact linear algebra over formal bases.

Elements are finite integer combinations of labelled basis vectors.  A
combination is homogeneous in its basis kind and its bound k; mixing
kinds or bounds raises.  Coefficients are Python ints, and a float,
Fraction or str raises TypeError, so everything is arbitrary precision
and nothing here ever touches floating point.

Composition-indexed kinds: H (complete homogeneous words), M (monomial),
S (Schur-like, dual to QS), QS (quasi-symmetric Schur-like).
Partition-indexed kinds: h, m, s (k-Schur), dual-s (dual k-Schur).
``labels.SIDE_OF`` gives the side of each kind.

A ``BasisMatrix`` holds one change of basis as sparse integer rows, each
packed into the narrowest signed ``array`` that holds it (see ``packed``),
so a matrix costs a few bytes per nonzero and its values stay exact ints.
These rows are its one representation: it reads an entry by bisecting a
row, and expands, transposes and multiplies row by row; it inverts
nothing, since ``systems`` builds each inverse it needs from the Pieri
rule directly.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import compress

from .errors import DomainError
from .labels import SIDE_OF, is_k_bounded, sort_to_partition


def _check_kind(kind):
    if kind not in SIDE_OF:
        raise DomainError(f"unknown basis kind {kind!r}")


class LinearCombination:
    """A finite integer combination of basis elements of one (kind, k)."""

    __slots__ = ("kind", "k", "_coeffs")

    def __init__(self, kind, k, coeffs=None):
        _check_kind(kind)
        self.kind = kind
        self.k = k
        clean = {}
        for index, coeff in (coeffs or {}).items():
            coeff = operator.index(coeff)
            if coeff:
                index = tuple(index)
                if not is_k_bounded(index, k):
                    raise DomainError(f"index {index!r} is not {k}-bounded")
                clean[index] = coeff
        self._coeffs = clean

    @classmethod
    def single(cls, kind, index, k, coeff=1):
        return cls(kind, k, {tuple(index): coeff})

    @classmethod
    def zero(cls, kind, k):
        return cls(kind, k, {})

    def coefficient(self, index) -> int:
        return self._coeffs.get(tuple(index), 0)

    def terms(self):
        """Deterministic (index, coefficient) pairs: graded, then lex."""
        return tuple(
            (index, self._coeffs[index])
            for index in sorted(self._coeffs, key=lambda i: (sum(i), i))
        )

    def is_zero(self) -> bool:
        return not self._coeffs

    def _require_compatible(self, other):
        if self.kind != other.kind or self.k != other.k:
            raise DomainError(
                f"mixed bases: {self.kind}@k={self.k} vs {other.kind}@k={other.k}"
            )

    def __add__(self, other):
        self._require_compatible(other)
        out = dict(self._coeffs)
        for index, coeff in other._coeffs.items():
            out[index] = out.get(index, 0) + coeff
        return LinearCombination(self.kind, self.k, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return LinearCombination(
            self.kind, self.k, {i: scalar * c for i, c in self._coeffs.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, LinearCombination)
            and self.kind == other.kind
            and self.k == other.k
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.kind, self.k, frozenset(self._coeffs.items())))

    def __repr__(self):
        body = " + ".join(f"{c}*{self.kind}{list(i)}" for i, c in self.terms())
        return f"<{self.kind}@k={self.k}: {body or '0'}>"


def _require_kind(combo, kind):
    if combo.kind != kind:
        raise DomainError(f"expected kind {kind!r}, got {combo.kind!r}")


def _bilinear(a, b, kind, words) -> LinearCombination:
    """The bilinear extension of a product of kind words, where words(x, y)
    gives the product of x and y as (word, multiplicity) pairs."""
    _require_kind(a, kind)
    _require_kind(b, kind)
    a._require_compatible(b)
    out = {}
    for ia, ca in a._coeffs.items():
        for ib, cb in b._coeffs.items():
            for word, mult in words(ia, ib):
                out[word] = out.get(word, 0) + ca * cb * mult
    return LinearCombination(kind, a.k, out)


def h_product(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Commutative product of complete homogeneous elements: merge and sort."""
    return _bilinear(a, b, "h", lambda x, y: ((sort_to_partition(x + y), 1),))


def H_product(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Free (non-commutative) product of H words: concatenation."""
    return _bilinear(a, b, "H", lambda x, y: ((x + y, 1),))


@lru_cache(maxsize=None)
def _quasi_shuffle_words(x, y):
    """Quasi-shuffle of two compositions: interleavings where one part of
    each side may merge by addition.  Returns ((word, multiplicity), ...)."""
    if not x or not y:
        return ((x + y, 1),)
    out = {}
    # the first part is x's, y's, or the two merged
    for head, rest in (((x[0],), (x[1:], y)), ((y[0],), (x, y[1:])), ((x[0] + y[0],), (x[1:], y[1:]))):
        for word, mult in _quasi_shuffle_words(*rest):
            word = head + word
            out[word] = out.get(word, 0) + mult
    return tuple(out.items())


def M_quasi_shuffle(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Quasi-shuffle product of monomial elements.

    When k is bounded, product terms with a part above k fall into the
    quotient ideal and are discarded.
    """
    k = a.k
    return _bilinear(a, b, "M", lambda x, y: [(w, m) for w, m in _quasi_shuffle_words(x, y) if is_k_bounded(w, k)])


_PAIRS = {"M": "H", "m": "h"}


def pairing(f: LinearCombination, g: LinearCombination) -> int:
    """Duality pairing of a monomial-side and a complete-side combination."""
    if f.kind not in _PAIRS or g.kind != _PAIRS[f.kind]:
        raise DomainError(f"cannot pair kinds {f.kind!r} and {g.kind!r}")
    if f.k != g.k:
        raise DomainError(f"cannot pair k={f.k} with k={g.k}")
    return sum(c * g._coeffs.get(i, 0) for i, c in f._coeffs.items())


def chi_project(g: LinearCombination) -> LinearCombination:
    """The projection onto commuting generators: H word -> h of sorted parts."""
    _require_kind(g, "H")
    out = {}
    for word, coeff in g._coeffs.items():
        lam = sort_to_partition(word)
        out[lam] = out.get(lam, 0) + coeff
    return LinearCombination("h", g.k, out)


# About the most nonzeros that one pass of BasisMatrix.transposed holds in
# list buckets: each costs two list slots, plus an int object when its value
# is above 256.
_BAND_ENTRIES = 1 << 18


# Each signed array typecode with the bound that its values lie strictly
# within: -bound <= v < bound.
_TYPECODES = ((1 << 7, "b"), (1 << 15, "h"), (1 << 31, "i"), (1 << 63, "q"))


def packed(values):
    """The list or tuple values as the narrowest signed array (typecode b,
    h, i or q) that holds them all, or as a tuple when none does, so the
    values stay exact.  The typecodes are tried from the narrowest that
    holds the last value (the largest, in a row of columns): an array
    raises OverflowError on a value out of its range, never wrapping it."""
    last = values[-1] if values else 0
    for bound, code in _TYPECODES:
        if -bound <= last < bound:
            try:
                return array(code, values)
            except OverflowError:
                pass
    return tuple(values)


def _combine_rows(acc, terms, cols, vals) -> tuple:
    """Add to the dense row acc, for each (j, a) in terms, a times sparse
    row j of (cols, vals); return the sum sparse, as a (cols, vals) pair."""
    for j, a in terms:
        for c, v in zip(cols[j], vals[j]):
            acc[c] += a * v
    return tuple(compress(range(len(acc)), acc)), tuple(filter(None, acc))


class BasisMatrix:
    """Labelled exact integer matrix for one graded component.

    Row label r expands as: source_kind[r] = sum over columns c of
    entry(r, c) * target_kind[c].  Row r is stored sparse, as the parallel
    packed rows cols[r] (strictly increasing column positions) and vals[r]
    (the nonzero entries there), as ``packed`` makes them: signed arrays,
    or a tuple where a value needs more than 64 bits.
    """

    def __init__(self, n, k, source_kind, target_kind, row_labels, col_labels, cols, vals):
        _check_kind(source_kind)
        _check_kind(target_kind)
        width = len(col_labels)
        if len(cols) != len(row_labels) or len(vals) != len(row_labels) or any(
            len(c) != len(v) or (c and not 0 <= c[0] <= c[-1] < width) for c, v in zip(cols, vals)
        ):
            raise ValueError("matrix shape does not match labels")
        self.n, self.k, self.source_kind, self.target_kind = n, k, source_kind, target_kind
        self.row_labels, self.col_labels, self.cols, self.vals = row_labels, col_labels, cols, vals

    @cached_property
    def _row_position(self) -> dict:
        return {label: r for r, label in enumerate(self.row_labels)}

    @cached_property
    def _col_position(self) -> dict:
        return {label: c for c, label in enumerate(self.col_labels)}

    def _locate(self, position, label) -> int:
        try:
            return position[tuple(label)]
        except KeyError:
            raise DomainError(
                f"no label {tuple(label)!r} in {self.source_kind}->{self.target_kind} "
                f"at n={self.n}, k={self.k}"
            ) from None

    def entry(self, row_label, col_label) -> int:
        r = self._locate(self._row_position, row_label)
        c = self._locate(self._col_position, col_label)
        cols = self.cols[r]
        i = bisect_left(cols, c)
        return self.vals[r][i] if i < len(cols) and cols[i] == c else 0

    def expand(self, combo: LinearCombination) -> LinearCombination:
        """Rewrite a combination over the source kind into the target kind."""
        if combo.kind != self.source_kind or combo.k != self.k:
            raise DomainError(
                f"cannot expand {combo.kind}@k={combo.k} through "
                f"{self.source_kind}->{self.target_kind}@k={self.k}"
            )
        out = {}
        for index, coeff in combo._coeffs.items():
            r = self._locate(self._row_position, index)
            for c, v in zip(self.cols[r], self.vals[r]):
                label = self.col_labels[c]
                out[label] = out.get(label, 0) + coeff * v
        return LinearCombination(self.target_kind, self.k, out)

    def transposed(self, source_kind, target_kind) -> "BasisMatrix":
        """Transpose with relabelled kinds (the duality-partner matrix).

        One band of columns is built per pass: each row's entries in the
        band, found by bisecting its columns, are appended to their
        column's list bucket in row order, and the band's buckets are
        packed when the pass ends, so only one band is ever held as lists.
        A band spans about _BAND_ENTRIES nonzeros if they spread evenly."""
        width = len(self.col_labels)
        band = max(1, width * _BAND_ENTRIES // max(1, sum(map(len, self.cols))))
        cols, vals = [None] * width, [None] * width
        for low in range(0, width, band):
            high = min(low + band, width)
            for c in range(low, high):
                cols[c], vals[c] = [], []
            for r, (row_cols, row_vals) in enumerate(zip(self.cols, self.vals)):
                i, j = bisect_left(row_cols, low), bisect_left(row_cols, high)
                for c, v in zip(row_cols[i:j], row_vals[i:j]):
                    cols[c].append(r)
                    vals[c].append(v)
            cols[low:high] = map(packed, cols[low:high])
            vals[low:high] = map(packed, vals[low:high])
        return BasisMatrix(
            self.n, self.k, source_kind, target_kind, self.col_labels, self.row_labels, tuple(cols), tuple(vals)
        )

    def matmul(self, other: "BasisMatrix") -> Iterator[tuple]:
        """Entry product self @ other, yielded row by row as (cols, vals)
        pairs, so only one row of the product is held at a time: row i is
        the combination of the rows of other by the entries of row i of
        self.  Mismatched labels raise at the call.  The duality suite reads
        one of these."""
        if self.col_labels != other.row_labels:
            raise ValueError("label mismatch in matrix product")
        width = len(other.col_labels)
        return (_combine_rows([0] * width, zip(*row), other.cols, other.vals) for row in zip(self.cols, self.vals))
