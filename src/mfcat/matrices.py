"""Rectangular matrices of polynomials, stored sparsely.

Every (1,0)-matrix with at most one 1 per row and per column (identities,
zero matrices, partial identities, permutations) is stored as a *column
map*: for each column, the row of its 1 or ``None``; the identity's map is
``range(n)``, so identities of any side cost O(1).  Every other matrix is a
dict of its nonzero entries.  Column maps never leave this module.  The
public constructor is the one checking door: it takes a mapping of entries
only, reads each non-``Polynomial`` value by ``Polynomial.constant``, checks
every index, drops zeros and picks the backend, so the choice is canonical:
the sub-permutation tests are O(1), and matrices on different backends are
unequal.  Results that are in range, nonzero and canonical by construction
skip it (:func:`_make_matrix`): ``identity``, ``permutation`` after its
own check, a product or Kronecker product of two maps, and the
entry path of :func:`kronecker` (products of nonzero polynomials are
nonzero, and unless all are 1, as for units like -1 * -1, the result is a
dict matrix).  Everything else, parsed input included, is checked: a
negation, for one, can turn a dict matrix of -1s into a map.  Index
arithmetic is used only where both operands are maps, and an identity
factor of a product is passed through.  Every other operation takes the
one entry path, where a product hands the entries of both operands to the
one product kernel (``polynomials._packed_product``).  Large matrices occur
in the check suites only as maps, so exact arithmetic stays affordable at
side 2**19.

:func:`kronecker` is the one Kronecker product of the library: with
``copies`` it builds I_copies (x) (a (x) b), so the doubled blocks of the
multiplicative tensor product come from the same code as a plain a (x) b.

Values are immutable; all operations are pure and thread-safe.  The module
offers only the arithmetic the library runs: there is no matrix sum, no
scalar multiple and no single-entry read (``to_rows`` and ``items`` read
entries), and the block constructions are :func:`direct_sum` and
:func:`block2x2`.

A size guard rejects results beyond ``MAX_SIDE`` per dimension, so tensor
constructions, which double sizes, fail clearly instead of exhausting memory;
:func:`kronecker` tests its size once and derives the a (x) b message only on
failure.  Printing refuses a dense literal of over ``MAX_PRINT_ENTRIES`` entries.

Text is read only by :func:`parse_matrix`, from one token list of the
polynomial parser, each entry in place, so an error carries one position,
counted from the start of the literal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterator, Mapping, Sequence

from .errors import DimensionMismatchError, MatrixSyntaxError, ParseError, SizeGuardError
from .polynomials import ONE, ZERO, Polynomial, _packed_product, _parse_sum, _position, _tokenize

# The largest check suite (its maxpow cap is derived from this guard by
# ``axiom_suites._e_powers``) reaches side 2**19; one power of two of headroom.
MAX_SIDE = 1 << 20

# Matrix literals are dense: every zero is printed.  Beyond this many entries
# (side 2048 when square) a literal is refused before anything is built; a
# side-MAX_SIDE literal would need 2^40 entries.
MAX_PRINT_ENTRIES = 1 << 22

EntryLike = Polynomial | int | Fraction
ColumnMap = Sequence[int | None]


def _guard(rows: int, cols: int) -> None:
    if type(rows) is not int or type(cols) is not int:  # a bool is refused too
        raise TypeError(f"matrix sides must be ints, not {rows!r} and {cols!r}")
    if rows > MAX_SIDE or cols > MAX_SIDE:
        raise SizeGuardError(
            f"result size {rows}x{cols} exceeds the guard ({MAX_SIDE} per side)"
        )
    if rows <= 0 or cols <= 0:
        raise DimensionMismatchError("matrix dimensions must be positive")


def _canonical_map(rows: int, cols: int, column_map: tuple) -> ColumnMap:
    """A checked column map as stored: ``range`` for the identity."""
    if rows == cols and column_map == tuple(range(cols)):
        return range(cols)
    return column_map


class PolyMatrix:
    """An immutable rows x cols matrix of :class:`Polynomial` entries, built
    from a checked mapping ``(row, col) -> value`` (see the module docstring)."""

    __slots__ = ("rows", "cols", "_entries", "_map")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], EntryLike]):
        if not isinstance(entries, Mapping):
            raise TypeError("entries must be a mapping (row, col) -> value; build 0/1 matrices "
                            "with PolyMatrix.permutation or a dict of ones")
        _guard(rows, cols)
        self.rows = rows
        self.cols = cols
        cleaned: dict[tuple[int, int], Polynomial] = {}
        ones = True
        for key, value in entries.items():
            i, j = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"entry index {key!r} is not a pair of ints")
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatchError(f"entry index {(i, j)} out of range")
            if not isinstance(value, Polynomial):
                value = Polynomial.constant(value)
            if not value.is_zero():
                cleaned[(i, j)] = value
                ones = ones and value.is_one()
        if ones and len({i for i, _ in cleaned}) == len({j for _, j in cleaned}) == len(cleaned):
            row_of = {j: i for i, j in cleaned}
            self._entries = None
            self._map = _canonical_map(rows, cols, tuple([row_of.get(j) for j in range(cols)]))
        else:
            self._entries, self._map = cleaned, None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        _guard(n, n)
        return _make_matrix(n, n, None, range(n))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[EntryLike]]) -> "PolyMatrix":
        if isinstance(rows, str) or any(isinstance(row, str) for row in rows):
            raise TypeError("matrix rows must be sequences of entries, not strings")
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrix needs at least one row and column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise DimensionMismatchError("ragged rows in matrix literal")
        return PolyMatrix(len(rows), len(rows[0]), {
            (i, j): value for i, row in enumerate(rows) for j, value in enumerate(row)
        })

    @staticmethod
    def permutation(images: Sequence[int]) -> "PolyMatrix":
        """The permutation matrix P with P[images[k], k] = 1."""
        images = tuple(images)
        n = len(images)
        if any(type(k) is not int for k in images) or sorted(images) != list(range(n)):
            raise DimensionMismatchError("not a permutation of 0..n-1")
        _guard(n, n)
        return _make_matrix(n, n, None, _canonical_map(n, n, images))

    # -- access ---------------------------------------------------------------

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
            composed = tuple([None if k is None else left[k] for k in right])
            return _make_matrix(
                self.rows, other.cols, None, _canonical_map(self.rows, other.cols, composed)
            )
        return PolyMatrix(self.rows, other.cols, _packed_product(self.items(), other.items()))

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(
            self.rows, self.cols, {(i, j): -p for i, j, p in self.items()}
        )

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


def _make_matrix(
    rows: int, cols: int, entries: dict | None, column_map: ColumnMap | None
) -> PolyMatrix:
    """Wrap, unchecked and uncopied, a matrix already within the guard and on
    its canonical backend (``entries`` or ``column_map``, the other None)."""
    m = object.__new__(PolyMatrix)
    m.rows = rows
    m.cols = cols
    m._entries = entries
    m._map = column_map
    return m


# ---------------------------------------------------------------------------
# block constructions


def kronecker(a: PolyMatrix, b: PolyMatrix, copies: int = 1) -> PolyMatrix:
    """I_copies (x) (a (x) b), each entry product formed once.  The size is tested
    once; only on failure is a (x) b guarded alone, to report it at its own size."""
    rows, cols, left, right = a.rows * b.rows, a.cols * b.cols, a._map, b._map
    height, width = copies * rows, copies * cols
    if not (0 < height <= MAX_SIDE and 0 < width <= MAX_SIDE):
        _guard(rows, cols)
        _guard(height, width)
    if type(left) is range and type(right) is range:
        return _make_matrix(height, height, None, range(height))
    if left is not None and right is not None:
        return _map_kronecker(a, b, copies)
    entries: dict[tuple[int, int], Polynomial] = {}
    for i, j, p in a.items():
        for k, l, q in b.items():
            r, c, pq = i * b.rows + k, j * b.cols + l, p * q
            for n in range(copies):
                entries[(n * rows + r, n * cols + c)] = pq
    # only all-1 products (of units) or none at all can form a map
    if all(p.is_one() for p in entries.values()):
        return PolyMatrix(height, width, entries)
    return _make_matrix(height, width, entries, None)


def _map_kronecker(a: PolyMatrix, b: PolyMatrix, copies: int) -> PolyMatrix:
    """:func:`kronecker` of two column maps, not both identities, by index arithmetic."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    block = [None if i is None or k is None else i * b.rows + k for i in a._map for k in b._map]
    return _make_matrix(copies * rows, copies * cols, None, tuple([
        None if r is None else c * rows + r for c in range(copies) for r in block
    ]))


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


def block2x2(
    top_left: PolyMatrix,
    top_right: PolyMatrix,
    bottom_left: PolyMatrix,
    bottom_right: PolyMatrix,
) -> PolyMatrix:
    """[[top_left, top_right], [bottom_left, bottom_right]], built in one pass.
    Each row is checked as an "hstack" before the rows are checked as a
    "vstack", so a row-count mismatch is reported first."""
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


def _expect(text: str, tokens: list[str], i: int, symbol: str) -> int:
    if tokens[i] != symbol:
        raise MatrixSyntaxError(f"expected {symbol!r}", _position(text, i))
    return i + 1


def _parse_entry(text: str, tokens: list[str], i: int) -> tuple[Polynomial, int]:
    try:
        return _parse_sum(text, tokens, i)
    except ParseError as exc:
        raise MatrixSyntaxError(f"bad entry: {exc.message}", exc.position) from exc


def _parse_list(text: str, tokens: list[str], i: int, parse_item) -> tuple[list, int]:
    """Read ``'[' item (',' item)* ']'`` from token ``i``: the items, and the
    index of the token after the ``']'``."""
    item, i = parse_item(text, tokens, _expect(text, tokens, i, "["))
    items = [item]
    while tokens[i] == ",":
        item, i = parse_item(text, tokens, i + 1)
        items.append(item)
    return items, _expect(text, tokens, i, "]")


def parse_matrix(text: str) -> PolyMatrix:
    """Parse a matrix literal with polynomial entries."""
    tokens = _tokenize(text)
    rows, i = _parse_list(text, tokens, 0, partial(_parse_list, parse_item=_parse_entry))
    if tokens[i]:
        raise MatrixSyntaxError("trailing input after matrix literal", _position(text, i))
    return PolyMatrix.from_rows(rows)
