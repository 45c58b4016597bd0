"""Rectangular matrices of polynomials, stored sparsely.

Only nonzero entries are kept, and identity matrices get a dedicated O(1)
backend.  Large matrices occur in the check suites exclusively as identities,
zero-padded identity blocks and permutations, so the sparse form keeps exact
arithmetic affordable at sizes a dense row-major layout could not reach.
Equality is entry-wise exact polynomial equality regardless of backend.

Values are immutable; all operations are pure and thread-safe.

A size guard rejects results beyond ``MAX_SIDE`` per dimension: tensor
constructions double sizes, and the guard turns runaway growth into a clear
error instead of memory exhaustion.  Printing is guarded the same way: a
dense matrix literal of more than ``MAX_PRINT_ENTRIES`` entries is refused.

Matrix literals are read with the polynomial scanner, each entry in place, so
an error carries one position, counted from the start of the literal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    MatrixSyntaxError,
    ParseError,
    SizeGuardError,
)
from .polynomials import ONE, ZERO, Polynomial, _parse_sum, _Tokenizer, parse_polynomial

# Tensor powers of the trivial factorization reach side 2**19 in the largest
# check-suite configuration; one extra power of two of headroom.
MAX_SIDE = 1 << 20

# Matrix literals are dense: every zero is printed.  Beyond this many entries
# (side 2048 when square) a literal is refused before anything is built; a
# side-MAX_SIDE literal would need 2^40 entries.
MAX_PRINT_ENTRIES = 1 << 22

EntryLike = Polynomial | int | Fraction | str


def _guard(rows: int, cols: int) -> None:
    if rows > MAX_SIDE or cols > MAX_SIDE:
        raise SizeGuardError(
            f"result size {rows}x{cols} exceeds the guard ({MAX_SIDE} per side)"
        )
    if rows <= 0 or cols <= 0:
        raise DimensionMismatchError("matrix dimensions must be positive")


def _coerce_entry(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    if isinstance(value, str):
        return parse_polynomial(value)
    raise TypeError(f"cannot use {value!r} as a matrix entry")


class PolyMatrix:
    """An immutable rows x cols matrix of :class:`Polynomial` entries."""

    __slots__ = ("rows", "cols", "_entries", "_idcache")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Polynomial] | None):
        _guard(rows, cols)
        self.rows = rows
        self.cols = cols
        if entries is None:
            # identity backend
            if rows != cols:
                raise DimensionMismatchError("identity matrix must be square")
            self._entries = None
            self._idcache = True
            return
        cleaned: dict[tuple[int, int], Polynomial] = {}
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatchError(f"entry index {(i, j)} out of range")
            if not value.is_zero():
                cleaned[(i, j)] = value
        self._entries = cleaned
        self._idcache = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(n, n, None)

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix(rows, cols, {})

    @staticmethod
    def from_rows(rows: Sequence[Sequence[EntryLike]]) -> "PolyMatrix":
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrix needs at least one row and column")
        n_cols = len(rows[0])
        entries: dict[tuple[int, int], Polynomial] = {}
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise DimensionMismatchError("ragged rows in matrix literal")
            for j, value in enumerate(row):
                entries[(i, j)] = _coerce_entry(value)
        return PolyMatrix(len(rows), n_cols, entries)

    @staticmethod
    def permutation(images: Sequence[int]) -> "PolyMatrix":
        """The permutation matrix P with P[images[k], k] = 1."""
        n = len(images)
        if sorted(images) != list(range(n)):
            raise DimensionMismatchError("not a permutation of 0..n-1")
        return PolyMatrix(n, n, {(images[k], k): ONE for k in range(n)})

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if self._entries is None:
            return ONE if i == j else ZERO
        return self._entries.get((i, j), ZERO)

    def items(self) -> Iterator[tuple[int, int, Polynomial]]:
        """Iterate the nonzero entries as ``(row, col, value)``."""
        if self._entries is None:
            return ((i, i, ONE) for i in range(self.rows))
        return ((i, j, p) for (i, j), p in self._entries.items())

    def nnz(self) -> int:
        return self.rows if self._entries is None else len(self._entries)

    def to_rows(self) -> list[list[Polynomial]]:
        """Dense row-major form (intended for small matrices and printing)."""
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for i, j, p in self.items():
            out[i][j] = p
        return out

    # -- structure tests ------------------------------------------------------

    def is_identity(self) -> bool:
        if self._idcache is None:
            result = (
                self.rows == self.cols
                and len(self._entries) == self.rows
                and all(i == j and p.is_one() for (i, j), p in self._entries.items())
            )
            self._idcache = result
        return self._idcache

    def is_zero_matrix(self) -> bool:
        return self._entries is not None and not self._entries

    def is_sub_permutation01(self) -> bool:
        """Entries in {0,1} with at most one 1 per row and per column."""
        if self._entries is None:
            return True
        seen_rows: set[int] = set()
        seen_cols: set[int] = set()
        for (i, j), p in self._entries.items():
            if not p.is_one():
                return False
            if i in seen_rows or j in seen_cols:
                return False
            seen_rows.add(i)
            seen_cols.add(j)
        return True

    def is_permutation_matrix(self) -> bool:
        return (
            self.rows == self.cols
            and self.nnz() == self.rows
            and self.is_sub_permutation01()
        )

    # -- algebra --------------------------------------------------------------

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        by_row: dict[int, list[tuple[int, Polynomial]]] = {}
        for k, j, p in other.items():
            by_row.setdefault(k, []).append((j, p))
        out: dict[tuple[int, int], Polynomial] = {}
        for i, k, p in self.items():
            for j, q in by_row.get(k, ()):
                key = (i, j)
                total = out.get(key, ZERO) + p * q
                if total.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = total
        return PolyMatrix(self.rows, other.cols, out)

    def __mul__(self, scalar) -> "PolyMatrix":
        p = _coerce_entry(scalar)
        if p.is_one():
            return self
        if p.is_zero():
            return PolyMatrix.zeros(self.rows, self.cols)
        return PolyMatrix(
            self.rows, self.cols, {(i, j): p * q for i, j, q in self.items()}
        )

    __rmul__ = __mul__

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(
            self.rows, self.cols, {(i, j): -p for i, j, p in self.items()}
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in matrix addition")
        out = {(i, j): p for i, j, p in self.items()}
        for i, j, p in other.items():
            key = (i, j)
            total = out.get(key, ZERO) + p
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
        return PolyMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def transpose(self) -> "PolyMatrix":
        if self._entries is None:
            return self
        return PolyMatrix(
            self.cols, self.rows, {(j, i): p for i, j, p in self.items()}
        )

    # -- comparison and printing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self._entries is None:
            return other.is_identity()
        if other._entries is None:
            return self.is_identity()
        return self._entries == other._entries

    __hash__ = None  # mutable-free but unhashable; compare by content

    def __str__(self) -> str:
        return matrix_literal(self)

    def __repr__(self) -> str:
        if self._entries is None:
            return f"PolyMatrix.identity({self.rows})"
        if self.rows * self.cols > 400:
            return f"<PolyMatrix {self.rows}x{self.cols}, {self.nnz()} nonzero>"
        return f"PolyMatrix({matrix_literal(self)})"


# ---------------------------------------------------------------------------
# block constructions


def kronecker(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product: each entry a_ij replaced by the block a_ij * b."""
    _guard(a.rows * b.rows, a.cols * b.cols)
    if a.is_identity() and b.is_identity():
        return PolyMatrix.identity(a.rows * b.rows)
    entries: dict[tuple[int, int], Polynomial] = {}
    for i, j, p in a.items():
        for k, l, q in b.items():
            entries[(i * b.rows + k, j * b.cols + l)] = p * q
    return PolyMatrix(a.rows * b.rows, a.cols * b.cols, entries)


def direct_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Block-diagonal [[a, 0], [0, b]]."""
    _guard(a.rows + b.rows, a.cols + b.cols)
    if a.is_identity() and b.is_identity():
        return PolyMatrix.identity(a.rows + b.rows)
    entries = {(i, j): p for i, j, p in a.items()}
    for i, j, p in b.items():
        entries[(a.rows + i, a.cols + j)] = p
    return PolyMatrix(a.rows + b.rows, a.cols + b.cols, entries)


def hstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.rows != b.rows:
        raise DimensionMismatchError("row count mismatch in hstack")
    _guard(a.rows, a.cols + b.cols)
    entries = {(i, j): p for i, j, p in a.items()}
    for i, j, p in b.items():
        entries[(i, a.cols + j)] = p
    return PolyMatrix(a.rows, a.cols + b.cols, entries)


def vstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.cols != b.cols:
        raise DimensionMismatchError("column count mismatch in vstack")
    _guard(a.rows + b.rows, a.cols)
    entries = {(i, j): p for i, j, p in a.items()}
    for i, j, p in b.items():
        entries[(a.rows + i, j)] = p
    return PolyMatrix(a.rows + b.rows, a.cols, entries)


def block2x2(
    top_left: PolyMatrix,
    top_right: PolyMatrix,
    bottom_left: PolyMatrix,
    bottom_right: PolyMatrix,
) -> PolyMatrix:
    return vstack(hstack(top_left, top_right), hstack(bottom_left, bottom_right))


# ---------------------------------------------------------------------------
# matrix literals: [[x, -y], [y, x]]


def matrix_literal(a: PolyMatrix) -> str:
    if a.rows * a.cols > MAX_PRINT_ENTRIES:
        raise SizeGuardError(
            f"a {a.rows}x{a.cols} matrix literal exceeds the size guard for "
            f"printing ({MAX_PRINT_ENTRIES} entries)"
        )
    rows = a.to_rows()
    return "[" + ", ".join(
        "[" + ", ".join(str(p) for p in row) + "]" for row in rows
    ) + "]"


def _expect(tok: _Tokenizer, symbol: str) -> None:
    if tok.take_symbol(symbol) is None:
        raise MatrixSyntaxError(f"expected {symbol!r}", tok.pos)


def _parse_entry(tok: _Tokenizer) -> Polynomial:
    try:
        return _parse_sum(tok)
    except ParseError as exc:
        raise MatrixSyntaxError(f"bad entry: {exc.message}", exc.position) from exc


def _parse_list(tok: _Tokenizer, parse_item) -> list:
    """Read ``'[' item (',' item)* ']'``."""
    _expect(tok, "[")
    items = [parse_item(tok)]
    while tok.take_symbol(","):
        items.append(parse_item(tok))
    _expect(tok, "]")
    return items


def parse_matrix(text: str) -> PolyMatrix:
    """Parse a matrix literal with polynomial entries."""
    tok = _Tokenizer(text)
    rows = _parse_list(tok, lambda tok: _parse_list(tok, _parse_entry))
    if not tok.at_end():
        raise MatrixSyntaxError("trailing input after matrix literal", tok.pos)
    return PolyMatrix.from_rows(rows)
