import random

import pytest
from hypothesis import given, strategies as st

from mfcat.errors import DimensionMismatchError, MatrixSyntaxError, SizeGuardError
from mfcat.matrices import (
    MAX_SIDE,
    PolyMatrix,
    block2x2,
    direct_sum,
    hstack,
    kronecker,
    matrix_literal,
    parse_matrix,
    vstack,
)
from mfcat.polynomials import ONE, ZERO, Polynomial, parse_polynomial

from support import naive_kronecker, naive_mat_mul, random_matrix, random_sub_permutation


def test_mat_mul_intro_example():
    # the 2x2 factorization of x^2 + y^2
    a = parse_matrix("[[x, -y], [y, x]]")
    b = parse_matrix("[[x, y], [-y, x]]")
    f = parse_polynomial("x^2 + y^2")
    assert a @ b == f * PolyMatrix.identity(2)
    assert b @ a == f * PolyMatrix.identity(2)


def test_mat_mul_identity():
    rng = random.Random(5)
    a = random_matrix(rng, 3, 4)
    assert PolyMatrix.identity(3) @ a == a
    assert a @ PolyMatrix.identity(4) == a


def test_mat_mul_integer_inverse_pair():
    a = PolyMatrix.from_rows([[4, 3], [1, 1]])
    b = PolyMatrix.from_rows([[1, -3], [-1, 4]])
    assert a @ b == PolyMatrix.identity(2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        PolyMatrix.identity(2) @ PolyMatrix.identity(3)


def test_mat_mul_matches_naive():
    rng = random.Random(31)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, a.cols, rng.randint(1, 4))
        assert a @ b == naive_mat_mul(a, b)


def test_kronecker_scalar_unit():
    rng = random.Random(7)
    b = random_matrix(rng, 2, 3)
    assert kronecker(PolyMatrix.from_rows([[1]]), b) == b


def test_kronecker_identity_is_block_diagonal():
    rng = random.Random(8)
    b = random_matrix(rng, 2, 2)
    assert kronecker(PolyMatrix.identity(2), b) == direct_sum(b, b)


def test_kronecker_frozen_example():
    a = PolyMatrix.from_rows([[4, 3], [1, 1]])
    expected = PolyMatrix.from_rows(
        [[4, 0, 3, 0], [0, 4, 0, 3], [1, 0, 1, 0], [0, 1, 0, 1]]
    )
    assert kronecker(a, PolyMatrix.identity(2)) == expected
    assert naive_kronecker(a, PolyMatrix.from_rows([[1, 0], [0, 1]])) == expected


def test_kronecker_matches_naive():
    rng = random.Random(12)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert kronecker(a, b) == naive_kronecker(a, b)


def test_mixed_product_law():
    # kron(A,B) @ kron(C,D) == kron(A@C, B@D) on conforming shapes
    rng = random.Random(77)
    for _ in range(200):
        n, m, p, q, r, s = (rng.randint(1, 3) for _ in range(6))
        a = random_matrix(rng, n, m)
        c = random_matrix(rng, m, p)
        b = random_matrix(rng, q, r)
        d = random_matrix(rng, r, s)
        assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)


def test_direct_sum_examples():
    x = parse_matrix("[[x]]")
    y = parse_matrix("[[y]]")
    assert direct_sum(x, y) == parse_matrix("[[x, 0], [0, y]]")
    a = PolyMatrix.from_rows([["x", "y"]])
    b = PolyMatrix.from_rows([["1", "z"]])
    stacked = direct_sum(a, b)
    assert (stacked.rows, stacked.cols) == (2, 4)


def test_direct_sum_shape_law():
    rng = random.Random(3)
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        out = direct_sum(a, b)
        assert out.rows == a.rows + b.rows
        assert out.cols == a.cols + b.cols


def test_transpose_involution_and_shapes():
    rng = random.Random(4)
    a = random_matrix(rng, 2, 3)
    assert a.transpose().transpose() == a
    assert PolyMatrix.identity(4).transpose() == PolyMatrix.identity(4)
    z = PolyMatrix.zeros(2, 3)
    assert (z.transpose().rows, z.transpose().cols) == (3, 2)
    assert z.transpose().is_zero_matrix()


def test_transpose_of_stacked_identity():
    tall = vstack(PolyMatrix.identity(2), PolyMatrix.zeros(1, 2))
    wide = hstack(PolyMatrix.identity(2), PolyMatrix.zeros(2, 1))
    assert wide.transpose() == tall


def test_sub_permutation_predicate():
    assert hstack(PolyMatrix.identity(2), PolyMatrix.zeros(2, 2)).is_sub_permutation01()
    assert not PolyMatrix.from_rows([[1, 1], [0, 0]]).is_sub_permutation01()
    assert PolyMatrix.zeros(3, 3).is_sub_permutation01()
    assert not PolyMatrix.from_rows([[2]]).is_sub_permutation01()
    assert not PolyMatrix.from_rows([["x"]]).is_sub_permutation01()


def test_permutation_predicate():
    assert PolyMatrix.identity(4).is_permutation_matrix()
    assert PolyMatrix.from_rows([[0, 1], [1, 0]]).is_permutation_matrix()
    assert not PolyMatrix.from_rows([[1, 0], [1, 0]]).is_permutation_matrix()
    assert not PolyMatrix.zeros(2, 2).is_permutation_matrix()


def test_permutation_transpose_is_inverse():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 6)
        images = list(range(n))
        rng.shuffle(images)
        p = PolyMatrix.permutation(images)
        assert p @ p.transpose() == PolyMatrix.identity(n)
        assert p.transpose() @ p == PolyMatrix.identity(n)


def test_identity_backend_agrees_with_dense_identity():
    # the structural identity must be indistinguishable from a dense one
    rng = random.Random(9)
    dense_eye = PolyMatrix.from_rows([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    eye = PolyMatrix.identity(3)
    assert eye == dense_eye and dense_eye == eye
    assert dense_eye.is_identity()
    b = random_matrix(rng, 3, 3)
    assert eye @ b == dense_eye @ b
    assert kronecker(eye, b) == kronecker(dense_eye, b)
    assert kronecker(b, eye) == kronecker(b, dense_eye)
    assert direct_sum(eye, eye) == direct_sum(dense_eye, dense_eye)
    assert direct_sum(eye, eye) == PolyMatrix.identity(6)
    assert kronecker(eye, PolyMatrix.identity(5)) == PolyMatrix.identity(15)


def test_scalar_multiplication():
    rng = random.Random(10)
    a = random_matrix(rng, 2, 2)
    assert Polynomial.one() * a == a
    assert (Polynomial.zero() * a).is_zero_matrix()
    f = parse_polynomial("x + 1")
    assert (f * PolyMatrix.identity(2)).entry(0, 0) == f


def test_size_guard():
    with pytest.raises(SizeGuardError):
        PolyMatrix.identity(MAX_SIDE + 1)
    big = PolyMatrix.identity(MAX_SIDE // 2 + 1)
    with pytest.raises(SizeGuardError):
        kronecker(big, PolyMatrix.identity(2))
    with pytest.raises(SizeGuardError):
        direct_sum(big, big)


def test_matrix_literal_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert parse_matrix(matrix_literal(a)) == a


def test_matrix_literal_errors():
    with pytest.raises((MatrixSyntaxError, DimensionMismatchError)):
        parse_matrix("[[x, y], [z]]")  # ragged rows
    with pytest.raises((MatrixSyntaxError, DimensionMismatchError)):
        parse_matrix("[[x,], [y, z]]")
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("[[x] [y]]")
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("[[x]] trailing")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("[[x,], [y, z]]", "bad entry: expected a term", 4),
        ("[[ ]]", "bad entry: expected a term", 3),
        ("[[", "bad entry: expected a term", 2),
        ("[[x, y + ]]", "bad entry: expected a term", 9),
        ("[[x, 1/0]]", "bad entry: zero denominator", 7),
        ("[[x, y^]]", "bad entry: expected an exponent after '^'", 7),
        ("[[x^99999999]]", "bad entry: exponent 99999999 exceeds limit 1000000", 4),
        ("[[x, x^600000*x^600000]]", "bad entry: exponent 1200000 exceeds limit 1000000", 16),
        ("[[1, " + "9" * 5000 + "]]", "bad entry: numeral of 5000 digits exceeds", 5),
        ("[[[x]]]", "bad entry: expected a term", 2),
        ("[[x y]]", "expected ']'", 4),
        ("[[x, y@]]", "expected ']'", 6),
        ("[[x", "expected ']'", 3),
        ("[[x] [y]]", "expected ']'", 5),
        ("[x]", "expected '['", 1),
        ("x", "expected '['", 0),
        ("[[x]] trailing", "trailing input after matrix literal", 6),
    ],
    ids=lambda value: value[:24] if isinstance(value, str) else None,
)
def test_malformed_literals_carry_one_position(text, message, position):
    with pytest.raises(MatrixSyntaxError) as info:
        parse_matrix(text)
    assert str(info.value).startswith(message)
    assert info.value.position == position
    assert str(info.value).count("(at position") == 1


def test_entries_parse_in_place_like_standalone_polynomials():
    entries = ["x^2 + y^2", "-x", "1/2*x*y - 3", "x - -y", "0*x + x^0", "x + x - 2*x"]
    text = "[[" + ", ".join(entries[:3]) + "],\n [" + ",".join(entries[3:]) + " ]]"
    assert parse_matrix(text) == PolyMatrix.from_rows(
        [[parse_polynomial(e) for e in entries[:3]], [parse_polynomial(e) for e in entries[3:]]]
    )


def test_entry_access_bounds():
    a = PolyMatrix.identity(2)
    assert a.entry(0, 0).is_one()
    assert a.entry(0, 1).is_zero()
    with pytest.raises(IndexError):
        a.entry(2, 0)


# ---------------------------------------------------------------------------
# the sub-permutation (column map) backend against dense oracles


def _operands(rng, rows, cols):
    """Matrices of one shape on both backends: zero, sub-permutation and
    general, plus (when square) the identity as a range and as an explicit
    tuple, and a permutation."""
    out = [
        PolyMatrix.zeros(rows, cols),
        random_sub_permutation(rng, rows, cols),
        random_matrix(rng, rows, cols),
    ]
    if rows == cols:
        images = list(range(rows))
        rng.shuffle(images)
        out += [
            PolyMatrix.identity(rows),
            PolyMatrix(rows, rows, tuple(range(rows))),
            PolyMatrix.permutation(images),
        ]
    return out


def _dense(m):
    """Dense rows read through ``entry``, not through ``items``."""
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def _dense_facts(rows):
    """What every structure test should answer, computed from dense rows."""
    nonzero = [(i, j) for i, row in enumerate(rows) for j, p in enumerate(row) if not p.is_zero()]
    square = len(rows) == len(rows[0])
    sub = all(rows[i][j].is_one() for i, j in nonzero) and (
        len({i for i, _ in nonzero}) == len({j for _, j in nonzero}) == len(nonzero)
    )
    return {
        "nnz": len(nonzero),
        "is_identity": square and sub and nonzero == [(k, k) for k in range(len(rows))],
        "is_zero_matrix": not nonzero,
        "is_sub_permutation01": sub,
        "is_permutation_matrix": square and sub and len(nonzero) == len(rows),
    }


def _facts(m):
    return {
        "nnz": m.nnz(),
        "is_identity": m.is_identity(),
        "is_zero_matrix": m.is_zero_matrix(),
        "is_sub_permutation01": m.is_sub_permutation01(),
        "is_permutation_matrix": m.is_permutation_matrix(),
    }


def test_matmul_matches_naive_on_every_backend_pair():
    rng = random.Random(101)
    pairs = set()
    for _ in range(40):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        for a in _operands(rng, n, k):
            for b in _operands(rng, k, m):
                expected = naive_mat_mul(a, b)
                product = a @ b
                assert product.to_rows() == expected.to_rows()
                assert product == expected and expected == product
                pairs.add((a.is_sub_permutation01(), b.is_sub_permutation01()))
    assert pairs == {(True, True), (True, False), (False, True), (False, False)}


# Entries come in +/- pairs, so products of these meet p and -p and their
# entry sums cancel, wholly or in part.
_SIGNED_ENTRIES = [
    sign * parse_polynomial(base)
    for base in ("x", "x + y", "1/2", "x*y - 1", "2/3*x - 3/2*y")
    for sign in (1, -1)
]
_ENTRY = st.sampled_from([ZERO, ONE] + _SIGNED_ENTRIES)


@st.composite
def _dict_matrix(draw, rows, cols):
    return PolyMatrix.from_rows(
        [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]
    )


@st.composite
def _map_matrix(draw, rows, cols):
    used = draw(st.permutations(range(rows)))
    return PolyMatrix(rows, cols, [
        used[j] if j < rows and draw(st.booleans()) else None for j in range(cols)
    ])


@st.composite
def _product_operands(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    left = draw(st.one_of(_dict_matrix(n, k), _map_matrix(n, k)))
    return left, draw(_dict_matrix(k, m))


@given(_product_operands())
def test_entry_path_products_match_naive_with_cancelling_entries(operands):
    a, b = operands
    expected = naive_mat_mul(a, b)
    product = a @ b
    dense = expected.to_rows()
    assert product == expected and product.to_rows() == dense
    assert product.nnz() == sum(not p.is_zero() for row in dense for p in row)


def test_matmul_builds_each_entry_once(monkeypatch):
    a = parse_matrix("[[x + 1, y, x - y], [2*x, x*y + 1/2, 1], [y - 1, x^2, x + y]]")
    b = parse_matrix("[[y, 1/2*x + y, 2], [-x - 1, x - 1, y^2], [0, 3, x*y - 1/3]]")
    assert not a.is_sub_permutation01() and not b.is_sub_permutation01()
    built = []
    audit = Polynomial._audit
    monkeypatch.setattr(Polynomial, "_audit", lambda p: built.append(p) or audit(p))
    product = a @ b
    monkeypatch.undo()
    # (x + 1)y - y(x + 1) cancels: that entry is zero and builds nothing
    assert product.entry(0, 0).is_zero()
    assert len(built) == product.nnz() == 8
    assert product == naive_mat_mul(a, b)


def test_kronecker_and_doubled_kronecker_match_naive_on_every_backend_pair():
    rng = random.Random(102)
    pairs = set()
    for _ in range(25):
        r1, c1, r2, c2 = (rng.randint(1, 3) for _ in range(4))
        for a in _operands(rng, r1, c1):
            for b in _operands(rng, r2, c2):
                block = naive_kronecker(a, b).to_rows()
                assert kronecker(a, b).to_rows() == block
                assert kronecker(a, b) == PolyMatrix.from_rows(block)
                for copies in (2, 3):
                    # I_copies (x) (a (x) b): copy n sits at block row and column n
                    repeated = [
                        [ZERO] * (c1 * c2 * n) + row + [ZERO] * (c1 * c2 * (copies - 1 - n))
                        for n in range(copies)
                        for row in block
                    ]
                    assert kronecker(a, b, copies).to_rows() == repeated
                    assert kronecker(a, b, copies) == PolyMatrix.from_rows(repeated)
                pairs.add((a.is_sub_permutation01(), b.is_sub_permutation01()))
    assert pairs == {(True, True), (True, False), (False, True), (False, False)}


def test_structure_tests_access_and_transpose_match_a_dense_oracle():
    rng = random.Random(103)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        operands = _operands(rng, rows, cols)
        for m in operands:
            dense = _dense(m)
            assert _facts(m) == _dense_facts(dense)
            assert sorted((i, j) for i, j, _ in m.items()) == [
                (i, j) for i in range(rows) for j in range(cols) if not dense[i][j].is_zero()
            ]
            assert all(dense[i][j] == p for i, j, p in m.items())
            assert m.to_rows() == dense
            transposed = m.transpose()
            assert transposed.to_rows() == [list(column) for column in zip(*dense)]
            assert _facts(transposed) == _dense_facts(_dense(transposed))
            assert transposed.transpose() == m
        for a in operands:
            for b in operands:
                assert (a == b) == (_dense(a) == _dense(b))


def _random_column_map(rng, rows, cols):
    k = rng.randint(0, min(rows, cols))
    column_rows = [None] * cols
    for r, c in zip(rng.sample(range(rows), k), rng.sample(range(cols), k)):
        column_rows[c] = r
    return column_rows


def test_every_sub_permutation_is_stored_as_a_column_map():
    # The backend is canonical: a 0/1 sub-permutation built from entries or
    # from dense rows equals the map-built matrix and answers alike.
    rng = random.Random(104)
    cases = [[None] * 3, [0, 1, 2], [2, 0, 1], [0, 1]]
    shapes = [(2, 3), (3, 3), (3, 3), (4, 2)]
    for _ in range(60):
        shapes.append((rng.randint(1, 5), rng.randint(1, 5)))
        cases.append(_random_column_map(rng, *shapes[-1]))
    for (rows, cols), column_rows in zip(shapes, cases):
        by_map = PolyMatrix(rows, cols, column_rows)
        dense = [[ONE if column_rows[j] == i else ZERO for j in range(cols)] for i in range(rows)]
        by_entries = PolyMatrix(
            rows, cols, {(r, c): ONE for c, r in enumerate(column_rows) if r is not None}
        )
        for m in (by_entries, PolyMatrix.from_rows(dense)):
            assert m == by_map and by_map == m
            assert _facts(m) == _facts(by_map) == _dense_facts(dense)
            assert m.is_sub_permutation01()
    for rows, cols in [(1, 1), (2, 3), (4, 1)]:
        zero = PolyMatrix.zeros(rows, cols)
        for m in (PolyMatrix(rows, cols, {}), PolyMatrix(rows, cols, [None] * cols)):
            assert m == zero and zero == m
            assert _facts(m) == _facts(zero)
    eye = PolyMatrix.identity(4)
    for m in (PolyMatrix(4, 4, (0, 1, 2, 3)), PolyMatrix(4, 4, {(k, k): ONE for k in range(4)})):
        assert m == eye and eye == m
        assert m.is_identity() and _facts(m) == _facts(eye)
    # entries outside {0, 1} keep the entry backend
    scaled = PolyMatrix(2, 2, {(0, 0): ONE, (1, 1): Polynomial.constant(-1)})
    assert not scaled.is_sub_permutation01() and scaled != eye


@pytest.mark.parametrize(
    "rows, cols, column_rows, message",
    [
        (2, 2, (0,), "column map of length 1 for 2 columns"),
        (2, 2, range(3), "column map of length 3 for 2 columns"),
        (2, 3, (0, 1), "column map of length 2 for 3 columns"),
        (2, 2, (0, 2), "column map has a row outside 0..1"),
        (2, 3, range(3), "column map has a row outside 0..1"),
        (3, 2, (-1, 0), "column map has a row outside 0..2"),
        (3, 2, (1, 1), "column map uses a row twice"),
        (3, 3, (None, 2, 2), "column map uses a row twice"),
        (2, 2, [1.0, 0.0], "column map entry 1.0 is not a row index"),
        (2, 2, [True, False], "column map entry True is not a row index"),
        (1, 1, ["x"], "column map entry 'x' is not a row index"),
    ],
)
def test_bad_column_maps_are_rejected(rows, cols, column_rows, message):
    with pytest.raises(DimensionMismatchError) as info:
        PolyMatrix(rows, cols, column_rows)
    assert str(info.value) == message


@pytest.mark.parametrize("images", [[0, 0], [1, 2], [0, 2, 1, 4], [-1, 0], [None, 0]])
def test_permutation_rejects_non_permutations(images):
    with pytest.raises(DimensionMismatchError, match=r"^not a permutation of 0\.\.n-1$"):
        PolyMatrix.permutation(images)


def test_map_kronecker_past_the_guard_raises_like_the_entry_path():
    side = MAX_SIDE // 2 + 1
    on_map = PolyMatrix(side, 1, (0,))
    on_entries = PolyMatrix(side, 1, {(0, 0): parse_polynomial("x")})
    swap = PolyMatrix.permutation([1, 0])
    assert on_map.is_sub_permutation01() and not on_entries.is_sub_permutation01()
    for copies in (1, 2):
        messages = []
        for a in (on_map, on_entries):
            with pytest.raises(SizeGuardError) as info:
                kronecker(a, swap, copies)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"result size {2 * side}x2 exceeds the guard" in messages[0]


# ---------------------------------------------------------------------------
# block2x2 against a dense oracle


def _block_of_kind(rng, kind, rows, cols):
    """A rows x cols matrix stored as ``kind``: the identity (square only), a
    column map that is not the identity, or a dict of entries."""
    if kind == "identity":
        return PolyMatrix.identity(rows)
    while True:
        m = random_sub_permutation(rng, rows, cols) if kind == "map" else random_matrix(rng, rows, cols)
        if m.is_sub_permutation01() == (kind == "map") and not m.is_identity():
            return m


def _dense_block2x2(tl, tr, bl, br):
    return [a + b for a, b in zip(tl.to_rows(), tr.to_rows())] + [
        a + b for a, b in zip(bl.to_rows(), br.to_rows())
    ]


def test_block2x2_matches_a_dense_oracle_on_every_backend_combination():
    rng = random.Random(105)
    kinds = ("identity", "map", "dict")
    combinations = set()
    for n in (1, 2, 3):
        for k1 in kinds:
            for k2 in kinds:
                for k3 in kinds:
                    for k4 in kinds:
                        blocks = [_block_of_kind(rng, k, n, n) for k in (k1, k2, k3, k4)]
                        out = block2x2(*blocks)
                        assert out.to_rows() == _dense_block2x2(*blocks)
                        assert out == PolyMatrix.from_rows(_dense_block2x2(*blocks))
                        combinations.add((k1, k2, k3, k4))
    assert len(combinations) == 3 ** 4
    # blocks need not line up: only the two row sums must agree
    for _ in range(40):
        r1, r2, c1, c2, c3 = (rng.randint(1, 3) for _ in range(5))
        c4 = c1 + c2 - c3
        if c4 < 1:
            continue
        shapes = [(r1, c1), (r1, c2), (r2, c3), (r2, c4)]
        blocks = [_block_of_kind(rng, rng.choice(kinds[1:]), *shape) for shape in shapes]
        out = block2x2(*blocks)
        assert out.to_rows() == _dense_block2x2(*blocks)
        assert out == vstack(hstack(*blocks[:2]), hstack(*blocks[2:]))


@pytest.mark.parametrize(
    "shapes, message",
    [
        ([(2, 2), (3, 2), (2, 2), (2, 2)], "row count mismatch in hstack"),
        ([(2, 2), (2, 2), (2, 2), (1, 2)], "row count mismatch in hstack"),
        ([(2, 2), (2, 2), (2, 2), (2, 1)], "column count mismatch in vstack"),
        # a row mismatch is reported before a column mismatch
        ([(2, 2), (2, 2), (2, 2), (1, 1)], "row count mismatch in hstack"),
    ],
)
def test_block2x2_shape_errors(shapes, message):
    blocks = [PolyMatrix.zeros(rows, cols) for rows, cols in shapes]
    with pytest.raises(DimensionMismatchError) as info:
        block2x2(*blocks)
    assert str(info.value) == message
    with pytest.raises(DimensionMismatchError) as stacked:
        vstack(hstack(*blocks[:2]), hstack(*blocks[2:]))
    assert str(stacked.value) == message


@pytest.mark.parametrize("shape", [(1, MAX_SIDE // 2 + 1), (MAX_SIDE // 2 + 1, 1)])
def test_block2x2_past_the_guard_raises_like_the_stacks(shape):
    block = PolyMatrix.zeros(*shape)
    messages = []
    for build in (block2x2, lambda a, b, c, d: vstack(hstack(a, b), hstack(c, d))):
        with pytest.raises(SizeGuardError) as info:
            build(block, block, block, block)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
