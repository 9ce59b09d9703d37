"""Exact linear algebra over formal bases.

Elements are finite integer combinations of labelled basis vectors.  A
combination is homogeneous in its basis kind and its bound k; mixing
kinds or bounds raises.  Coefficients are Python ints, so everything is
arbitrary precision and nothing here ever touches floating point.

Composition-indexed kinds: H (complete homogeneous words), M (monomial),
S (Schur-like, dual to QS), QS (quasi-symmetric Schur-like).
Partition-indexed kinds: h, m, s (k-Schur), dual-s (dual k-Schur).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError

COMPOSITION_KINDS = frozenset({"H", "M", "S", "QS"})
PARTITION_KINDS = frozenset({"h", "m", "s", "dual-s"})
ALL_KINDS = COMPOSITION_KINDS | PARTITION_KINDS


def _check_kind(kind):
    if kind not in ALL_KINDS:
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
            coeff = int(coeff)
            if coeff:
                index = tuple(index)
                if k is not None and any(p > k for p in index):
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

    def map_indices(self, func, kind=None):
        """Linear extension of an index map; optionally lands in a new kind."""
        out = {}
        for index, coeff in self._coeffs.items():
            new = tuple(func(index))
            out[new] = out.get(new, 0) + coeff
        return LinearCombination(kind or self.kind, self.k, out)


def _require_kind(combo, kind):
    if combo.kind != kind:
        raise DomainError(f"expected kind {kind!r}, got {combo.kind!r}")


def h_product(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Commutative product of complete homogeneous elements: merge and sort."""
    _require_kind(a, "h")
    _require_kind(b, "h")
    a._require_compatible(b)
    out = {}
    for ia, ca in a._coeffs.items():
        for ib, cb in b._coeffs.items():
            index = tuple(sorted(ia + ib, reverse=True))
            out[index] = out.get(index, 0) + ca * cb
    return LinearCombination("h", a.k, out)


def H_product(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Free (non-commutative) product of H words: concatenation."""
    _require_kind(a, "H")
    _require_kind(b, "H")
    a._require_compatible(b)
    out = {}
    for ia, ca in a._coeffs.items():
        for ib, cb in b._coeffs.items():
            index = ia + ib
            out[index] = out.get(index, 0) + ca * cb
    return LinearCombination("H", a.k, out)


@lru_cache(maxsize=None)
def _quasi_shuffle_words(x, y):
    """Quasi-shuffle of two compositions: interleavings where one part of
    each side may merge by addition.  Returns ((word, multiplicity), ...)."""
    if not x:
        return ((y, 1),)
    if not y:
        return ((x, 1),)
    out = {}
    for word, mult in _quasi_shuffle_words(x[1:], y):
        key = (x[0],) + word
        out[key] = out.get(key, 0) + mult
    for word, mult in _quasi_shuffle_words(x, y[1:]):
        key = (y[0],) + word
        out[key] = out.get(key, 0) + mult
    for word, mult in _quasi_shuffle_words(x[1:], y[1:]):
        key = (x[0] + y[0],) + word
        out[key] = out.get(key, 0) + mult
    return tuple(out.items())


def M_quasi_shuffle(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Quasi-shuffle product of monomial elements.

    When k is bounded, product terms with a part above k fall into the
    quotient ideal and are discarded.
    """
    _require_kind(a, "M")
    _require_kind(b, "M")
    a._require_compatible(b)
    k = a.k
    out = {}
    for ia, ca in a._coeffs.items():
        for ib, cb in b._coeffs.items():
            for word, mult in _quasi_shuffle_words(ia, ib):
                if k is not None and any(p > k for p in word):
                    continue
                out[word] = out.get(word, 0) + ca * cb * mult
    return LinearCombination("M", k, out)


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
    return g.map_indices(lambda index: tuple(sorted(index, reverse=True)), kind="h")


@dataclass(frozen=True)
class BasisMatrix:
    """Labelled exact integer matrix for one graded component.

    Row label r expands as: source_kind[r] = sum over columns c of
    entry(r, c) * target_kind[c].
    """

    n: int
    k: int | None
    source_kind: str
    target_kind: str
    row_labels: tuple
    col_labels: tuple
    rows: tuple  # tuple of tuples of int

    def __post_init__(self):
        _check_kind(self.source_kind)
        _check_kind(self.target_kind)
        if len(self.rows) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in self.rows
        ):
            raise ValueError("matrix shape does not match labels")

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
        return self.rows[r][self._locate(self._col_position, col_label)]

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
            for c, v in zip(self.col_labels, self.rows[r]):
                if v:
                    out[c] = out.get(c, 0) + coeff * v
        return LinearCombination(self.target_kind, self.k, out)

    def inverse(self) -> "BasisMatrix":
        """Exact inverse of a lower unitriangular matrix.

        Forward substitution: row i of the inverse is e_i minus the sum over
        j < i of entry (i, j) times row j of the inverse, so every step stays
        in the integers.  The Pieri matrices are lower unitriangular in label
        order; any other input signals a bug upstream and raises.
        """
        d = len(self.rows)
        if len(self.col_labels) != d:
            raise DomainError(f"cannot invert a {d}x{len(self.col_labels)} matrix")
        rows, sparse = [], []
        for i, row in enumerate(self.rows):
            if row[i] != 1 or any(row[i + 1:]):
                raise DomainError(f"matrix is not lower unitriangular at row {i}")
            acc = [0] * d
            acc[i] = 1
            for j, a in enumerate(row[:i]):
                if a:
                    for c, v in sparse[j]:
                        acc[c] -= a * v
            rows.append(tuple(acc))
            sparse.append([(c, v) for c, v in enumerate(acc) if v])
        return BasisMatrix(
            n=self.n,
            k=self.k,
            source_kind=self.target_kind,
            target_kind=self.source_kind,
            row_labels=self.col_labels,
            col_labels=self.row_labels,
            rows=tuple(rows),
        )

    def transposed(self, source_kind, target_kind) -> "BasisMatrix":
        """Transpose with relabelled kinds (the duality-partner matrix)."""
        return BasisMatrix(
            n=self.n,
            k=self.k,
            source_kind=source_kind,
            target_kind=target_kind,
            row_labels=self.col_labels,
            col_labels=self.row_labels,
            rows=tuple(zip(*self.rows)) if self.rows else (),
        )

    def matmul(self, other: "BasisMatrix") -> Iterator[tuple]:
        """Entry product self @ other, yielded row by row, so only one row
        of the product is held at a time: each nonzero entry (i, j) of self
        adds that multiple of the nonzeros of row j of other into a dense
        accumulator for row i.  Mismatched labels raise at the call.  The
        duality suite reads one of these."""
        if self.col_labels != other.row_labels:
            raise ValueError("label mismatch in matrix product")
        sparse = [[(c, v) for c, v in enumerate(row) if v] for row in other.rows]

        def product_rows():
            for row in self.rows:
                acc = [0] * len(other.col_labels)
                for j, a in enumerate(row):
                    if a:
                        for c, v in sparse[j]:
                            acc[c] += a * v
                yield tuple(acc)

        return product_rows()
