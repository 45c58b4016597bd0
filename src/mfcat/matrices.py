"""Rectangular matrices of polynomials, stored sparsely.

Every (1,0)-matrix with at most one 1 per row and per column (identities,
zero matrices, partial identities, permutations) is stored as a *column
map*: for each column, the row of its 1 or ``None``.  The identity's map is
``range(n)``, so identities of any side cost O(1).  Every other matrix is a
dict of its nonzero entries.  The constructor picks the backend, so the
choice is canonical: the sub-permutation tests are O(1), and matrices on
different backends are unequal.  Index arithmetic is used only where both
operands are maps (products and Kronecker products), and an identity factor
of a product is passed through.  Every other operation (a map times a dict
matrix, transposes, scalar multiples, block placement) takes the one entry
path, where each entry of a product is summed in one terms dict and built
once (``polynomials._sum_of_products``): one ``cli-files`` benchmark pass
runs ``Polynomial._audit`` 7,457 times, not 21,091.  The README design note
gives the measured traffic behind this line.  Large matrices occur in the
check suites only as maps, so exact arithmetic stays affordable at side 2**19.

:func:`kronecker` is the one Kronecker product of the library: with
``copies`` it builds I_copies (x) (a (x) b), so the doubled blocks of the
multiplicative tensor product come from the same code as a plain a (x) b.

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
from .polynomials import _sum_of_products

# Tensor powers of the trivial factorization reach side 2**19 in the largest
# check-suite configuration; one extra power of two of headroom.
MAX_SIDE = 1 << 20

# Matrix literals are dense: every zero is printed.  Beyond this many entries
# (side 2048 when square) a literal is refused before anything is built; a
# side-MAX_SIDE literal would need 2^40 entries.
MAX_PRINT_ENTRIES = 1 << 22

EntryLike = Polynomial | int | Fraction | str
ColumnMap = Sequence[int | None]


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


def _checked_map(rows: int, cols: int, column_rows: ColumnMap) -> ColumnMap:
    """``column_rows`` checked (length; each entry ``None`` or an int row in
    range, no row used twice) and in canonical form: ``range(cols)`` for the
    identity, a tuple otherwise."""
    column_rows = tuple(column_rows)
    if len(column_rows) != cols:
        raise DimensionMismatchError(
            f"column map of length {len(column_rows)} for {cols} columns"
        )
    used = set()
    for r in column_rows:
        if r is None:
            continue
        if type(r) is not int:
            raise DimensionMismatchError(f"column map entry {r!r} is not a row index")
        if not 0 <= r < rows:
            raise DimensionMismatchError(f"column map has a row outside 0..{rows - 1}")
        if r in used:
            raise DimensionMismatchError("column map uses a row twice")
        used.add(r)
    if rows == cols == len(used) and column_rows == tuple(range(cols)):
        return range(cols)
    return column_rows


class PolyMatrix:
    """An immutable rows x cols matrix of :class:`Polynomial` entries.

    ``entries`` maps ``(row, col)`` to a polynomial, or is a column map (a
    tuple, list or range): for each column, the row of its 1 or ``None``.
    Either way it is checked, and the matrix is stored on its canonical
    backend.
    """

    __slots__ = ("rows", "cols", "_entries", "_map")

    def __init__(
        self, rows: int, cols: int, entries: Mapping[tuple[int, int], Polynomial] | ColumnMap
    ):
        _guard(rows, cols)
        self.rows = rows
        self.cols = cols
        self._entries = None
        if (type(entries) is range and rows == cols == entries.stop
                and entries.start == 0 and entries.step == 1):
            self._map = entries  # the identity, valid as it stands
            return
        if isinstance(entries, (tuple, list, range)):
            self._map = _checked_map(rows, cols, entries)
            return
        cleaned: dict[tuple[int, int], Polynomial] = {}
        ones = True
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatchError(f"entry index {(i, j)} out of range")
            if not value.is_zero():
                cleaned[(i, j)] = value
                ones = ones and value.is_one()
        if ones and len({i for i, _ in cleaned}) == len({j for _, j in cleaned}) == len(cleaned):
            row_of = {j: i for i, j in cleaned}
            self._map = _checked_map(rows, cols, [row_of.get(j) for j in range(cols)])
        else:
            self._entries = cleaned
            self._map = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(n, n, range(n))

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix(rows, cols, (None,) * cols)

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
        if None in images or sorted(images) != list(range(n)):
            raise DimensionMismatchError("not a permutation of 0..n-1")
        return PolyMatrix(n, n, images)

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if self._map is not None:
            return ONE if self._map[j] == i else ZERO
        return self._entries.get((i, j), ZERO)

    def items(self) -> Iterator[tuple[int, int, Polynomial]]:
        """Iterate the nonzero entries as ``(row, col, value)``."""
        if self._map is not None:
            return ((i, j, ONE) for j, i in enumerate(self._map) if i is not None)
        return ((i, j, p) for (i, j), p in self._entries.items())

    def nnz(self) -> int:
        return len(self._entries) if self._map is None else self.cols - self._map.count(None)

    def to_rows(self) -> list[list[Polynomial]]:
        """Dense row-major form (intended for small matrices and printing)."""
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for i, j, p in self.items():
            out[i][j] = p
        return out

    # -- structure tests ------------------------------------------------------

    def is_identity(self) -> bool:
        return type(self._map) is range

    def is_zero_matrix(self) -> bool:
        return self._map is not None and self._map.count(None) == self.cols

    def is_sub_permutation01(self) -> bool:
        """Entries in {0,1} with at most one 1 per row and per column."""
        return self._map is not None

    def is_permutation_matrix(self) -> bool:
        return self.rows == self.cols and self._map is not None and None not in self._map

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
        left, right = self._map, other._map
        if left is not None and right is not None:
            return PolyMatrix(
                self.rows, other.cols, [None if k is None else left[k] for k in right]
            )
        by_row: dict[int, list[tuple[int, Polynomial]]] = {}
        for k, j, p in other.items():
            by_row.setdefault(k, []).append((j, p))
        pairs: dict[tuple[int, int], list[tuple[Polynomial, Polynomial]]] = {}
        for i, k, p in self.items():
            for j, q in by_row.get(k, ()):
                pairs.setdefault((i, j), []).append((p, q))
        return PolyMatrix(self.rows, other.cols, {
            key: _sum_of_products(entry) for key, entry in pairs.items()
        })

    def __mul__(self, scalar) -> "PolyMatrix":
        p = _coerce_entry(scalar)
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
        return PolyMatrix(
            self.cols, self.rows, {(j, i): p for i, j, p in self.items()}
        )

    # -- comparison and printing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        # Each matrix has one canonical backend, so mixed backends differ.
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and self._map == other._map
            and self._entries == other._entries
        )

    __hash__ = None  # mutable-free but unhashable; compare by content

    def __str__(self) -> str:
        return matrix_literal(self)

    def __repr__(self) -> str:
        if self.is_identity():
            return f"PolyMatrix.identity({self.rows})"
        if self.rows * self.cols > 400:
            return f"<PolyMatrix {self.rows}x{self.cols}, {self.nnz()} nonzero>"
        return f"PolyMatrix({matrix_literal(self)})"


# ---------------------------------------------------------------------------
# block constructions


def kronecker(a: PolyMatrix, b: PolyMatrix, copies: int = 1) -> PolyMatrix:
    """I_copies (x) (a (x) b): the Kronecker product, each entry a_ij replaced
    by the block a_ij * b, repeated ``copies`` times down the diagonal.  Each
    entry product is computed once and stored at every copy."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    _guard(rows, cols)  # an oversized a (x) b is reported at its own size
    if a.is_identity() and b.is_identity():
        return PolyMatrix.identity(copies * rows)
    if a.is_sub_permutation01() and b.is_sub_permutation01():
        return _map_kronecker(a, b, copies)
    entries: dict[tuple[int, int], Polynomial] = {}
    for i, j, p in a.items():
        for k, l, q in b.items():
            r, c, pq = i * b.rows + k, j * b.cols + l, p * q
            for n in range(copies):
                entries[(n * rows + r, n * cols + c)] = pq
    return PolyMatrix(copies * rows, copies * cols, entries)


def _map_kronecker(a: PolyMatrix, b: PolyMatrix, copies: int) -> PolyMatrix:
    """:func:`kronecker` of two column maps, by index arithmetic alone."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    block = [None if i is None or k is None else i * b.rows + k for i in a._map for k in b._map]
    return PolyMatrix(copies * rows, copies * cols, [
        None if r is None else c * rows + r for c in range(copies) for r in block
    ])


def _placed(rows: int, cols: int, blocks) -> PolyMatrix:
    """The rows x cols matrix holding each block of ``blocks``, given as
    ``(r, c, block)`` with its top-left entry at (r, c); each entry is
    copied once."""
    _guard(rows, cols)
    return PolyMatrix(rows, cols, {
        (r + i, c + j): p for r, c, block in blocks for i, j, p in block.items()
    })


def direct_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Block-diagonal [[a, 0], [0, b]]."""
    return _placed(a.rows + b.rows, a.cols + b.cols, [(0, 0, a), (a.rows, a.cols, b)])


def hstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.rows != b.rows:
        raise DimensionMismatchError("row count mismatch in hstack")
    return _placed(a.rows, a.cols + b.cols, [(0, 0, a), (0, a.cols, b)])


def vstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.cols != b.cols:
        raise DimensionMismatchError("column count mismatch in vstack")
    return _placed(a.rows + b.rows, a.cols, [(0, 0, a), (a.rows, 0, b)])


def block2x2(
    top_left: PolyMatrix,
    top_right: PolyMatrix,
    bottom_left: PolyMatrix,
    bottom_right: PolyMatrix,
) -> PolyMatrix:
    """``vstack(hstack(top_left, top_right), hstack(bottom_left, bottom_right))``,
    with its errors in the same order, built in one pass."""
    for left, right in ((top_left, top_right), (bottom_left, bottom_right)):
        if left.rows != right.rows:
            raise DimensionMismatchError("row count mismatch in hstack")
        _guard(left.rows, left.cols + right.cols)
    cols = top_left.cols + top_right.cols
    if cols != bottom_left.cols + bottom_right.cols:
        raise DimensionMismatchError("column count mismatch in vstack")
    rows = top_left.rows
    return _placed(rows + bottom_left.rows, cols, [
        (0, 0, top_left), (0, top_left.cols, top_right),
        (rows, 0, bottom_left), (rows, bottom_left.cols, bottom_right),
    ])


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
