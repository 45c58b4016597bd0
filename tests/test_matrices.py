import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from mfcat import matrices
from mfcat.errors import DimensionMismatchError, MatrixSyntaxError, SizeGuardError
from mfcat.matrices import (
    MAX_SIDE,
    PolyMatrix,
    block2x2,
    direct_sum,
    kronecker,
    matrix_literal,
    parse_matrix,
)
from mfcat.polynomials import ONE, ZERO, Polynomial, parse_polynomial

from support import (
    dense_block2x2,
    dense_hstack,
    dense_vstack,
    naive_doubled_kronecker,
    naive_kronecker,
    naive_mat_mul,
    random_matrix,
    random_sub_permutation,
)


def test_mat_mul_intro_example():
    # the 2x2 factorization of x^2 + y^2
    a = parse_matrix("[[x, -y], [y, x]]")
    b = parse_matrix("[[x, y], [-y, x]]")
    f = parse_polynomial("x^2 + y^2")
    f_eye = PolyMatrix.from_rows([[f, 0], [0, f]])
    assert a @ b == f_eye
    assert b @ a == f_eye


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
    a = parse_matrix("[[x, y]]")
    b = parse_matrix("[[1, z]]")
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
    z = PolyMatrix(2, 3, {})
    assert (z.transpose().rows, z.transpose().cols) == (3, 2)
    assert z.transpose().nnz() == 0


def test_transpose_of_stacked_identity():
    tall = dense_vstack(PolyMatrix.identity(2), PolyMatrix(1, 2, {}))
    wide = dense_hstack(PolyMatrix.identity(2), PolyMatrix(2, 1, {}))
    assert wide.transpose() == tall


def test_sub_permutation_predicate():
    assert dense_hstack(PolyMatrix.identity(2), PolyMatrix(2, 2, {})).is_sub_permutation01()
    assert not PolyMatrix.from_rows([[1, 1], [0, 0]]).is_sub_permutation01()
    assert PolyMatrix(3, 3, {}).is_sub_permutation01()
    assert not PolyMatrix.from_rows([[2]]).is_sub_permutation01()
    assert not parse_matrix("[[x]]").is_sub_permutation01()


def test_permutation_predicate():
    assert PolyMatrix.identity(4).is_permutation_matrix()
    assert PolyMatrix.from_rows([[0, 1], [1, 0]]).is_permutation_matrix()
    assert not PolyMatrix.from_rows([[1, 0], [1, 0]]).is_permutation_matrix()
    assert not PolyMatrix(2, 2, {}).is_permutation_matrix()


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


def test_size_guard():
    with pytest.raises(SizeGuardError):
        PolyMatrix.identity(MAX_SIDE + 1)
    big = PolyMatrix.identity(MAX_SIDE // 2 + 1)
    # an oversized a (x) b is reported at its own size, whatever the copies
    for copies in (1, 2):
        with pytest.raises(SizeGuardError) as info:
            kronecker(big, PolyMatrix.identity(2), copies)
        assert str(info.value) == "result size 1048578x1048578 exceeds the guard (1048576 per side)"
    # within the guard as big (x) I_1, past it only through the copies
    with pytest.raises(SizeGuardError) as info:
        kronecker(big, PolyMatrix.identity(1), 2)
    assert str(info.value) == "result size 1048578x1048578 exceeds the guard (1048576 per side)"
    # side exactly MAX_SIDE through the copies is within the guard
    assert kronecker(PolyMatrix.identity(MAX_SIDE // 2), PolyMatrix.identity(1), 2) == (
        PolyMatrix.identity(MAX_SIDE)
    )
    # fewer than one copy is refused on the identity, map and entry paths
    swap = PolyMatrix.permutation([1, 0])
    dense = parse_matrix("[[x, 1], [0, y]]")
    for a, b in ((big, PolyMatrix.identity(1)), (swap, swap), (dense, swap), (dense, dense)):
        for copies in (0, -1):
            with pytest.raises(DimensionMismatchError, match="must be positive"):
                kronecker(a, b, copies)
    with pytest.raises(SizeGuardError):
        direct_sum(big, big)


def test_kronecker_guards_only_a_failing_size(monkeypatch):
    calls = []

    def counted(rows, cols):
        calls.append((rows, cols))
        return guard(rows, cols)

    guard = matrices._guard
    swap, x = PolyMatrix.permutation([1, 0]), parse_matrix("[[x, y], [0, x]]")
    big, one = PolyMatrix.identity(MAX_SIDE // 2 + 1), PolyMatrix.identity(1)
    # identity (x) identity, map (x) map and dict (x) dict
    pairs = [(PolyMatrix.identity(2), PolyMatrix.identity(3)), (swap, swap), (x, x)]
    expected = [naive_doubled_kronecker(a, b) for a, b in pairs]
    # and side exactly MAX_SIDE through the copies
    pairs.append((PolyMatrix.identity(MAX_SIDE // 2), one))
    expected.append(PolyMatrix.identity(MAX_SIDE))
    monkeypatch.setattr(matrices, "_guard", counted)
    assert [kronecker(a, b, 2) for a, b in pairs] == expected
    assert calls == []
    # a failing size still raises through the guard, a (x) b checked first
    with pytest.raises(SizeGuardError):
        kronecker(big, one, 2)
    assert calls == [(MAX_SIDE // 2 + 1,) * 2, (MAX_SIDE + 2,) * 2]
    with pytest.raises(DimensionMismatchError):
        kronecker(x, x, 0)
    assert calls[2:] == [(4, 4), (0, 0)]


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


# ---------------------------------------------------------------------------
# the sub-permutation (column map) backend against dense oracles


def _operands(rng, rows, cols):
    """Matrices of one shape on both backends: zero, sub-permutation and
    general, plus (when square) the identity from ``identity`` and from a
    dict of ones, and a permutation."""
    out = [
        PolyMatrix(rows, cols, {}),
        random_sub_permutation(rng, rows, cols),
        random_matrix(rng, rows, cols),
    ]
    if rows == cols:
        images = list(range(rows))
        rng.shuffle(images)
        out += [
            PolyMatrix.identity(rows),
            PolyMatrix(rows, rows, {(k, k): ONE for k in range(rows)}),
            PolyMatrix.permutation(images),
        ]
    return out


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
        "is_sub_permutation01": sub,
        "is_permutation_matrix": square and sub and len(nonzero) == len(rows),
    }


def _facts(m):
    return {
        "nnz": m.nnz(),
        "is_identity": m.is_identity(),
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
def _dict_matrix(draw, rows, cols, entry=_ENTRY):
    return PolyMatrix.from_rows(
        [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    )


@st.composite
def _map_matrix(draw, rows, cols):
    used = draw(st.permutations(range(rows)))
    return PolyMatrix(rows, cols, {
        (used[j], j): ONE for j in range(min(rows, cols)) if draw(st.booleans())
    })


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


# ---------------------------------------------------------------------------
# the trusted constructions: identities, products of two column maps and
# Kronecker products skip the checking constructor, so each result must
# already be what that constructor makes of its entries


def _assert_built_as_checked(m, expected):
    """``m`` equals ``expected`` (an oracle's result) and the public
    constructor's rebuild of its entries, on the same backend."""
    rebuilt = PolyMatrix(m.rows, m.cols, {(i, j): p for i, j, p in m.items()})
    assert m == rebuilt and m == expected
    assert m.is_identity() == rebuilt.is_identity()
    assert m.is_sub_permutation01() == rebuilt.is_sub_permutation01()


@given(st.integers(1, 40))
def test_identity_is_built_as_checked(n):
    dense = PolyMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
    _assert_built_as_checked(PolyMatrix.identity(n), dense)


@st.composite
def _map_product_operands(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(_map_matrix(n, k)), draw(_map_matrix(k, m))


_CYCLE = PolyMatrix.permutation([1, 2, 0])


@given(_map_product_operands())
@example((_CYCLE, _CYCLE.transpose()))  # a permutation times its inverse
@example((PolyMatrix(2, 3, {}), _CYCLE))
@example((PolyMatrix.permutation([1, 0]), PolyMatrix(2, 1, {})))
@example((PolyMatrix(1, 1, {}), PolyMatrix(1, 1, {})))
def test_map_products_are_built_as_checked(operands):
    a, b = operands
    _assert_built_as_checked(a @ b, naive_mat_mul(a, b))


# Products of these unit scales meet 1: (-1)(-1) and 2 * 1/2.
_UNIT_SCALES = st.sampled_from([parse_polynomial(c) for c in ("1", "-1", "2", "1/2")])


@st.composite
def _kronecker_factor(draw):
    """An identity, a column map, a column map times a unit, or a dict matrix."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["identity", "map", "scaled map", "dict"]))
    if kind == "identity":
        return PolyMatrix.identity(rows)
    if kind == "dict":
        return draw(_dict_matrix(rows, cols))
    m = draw(_map_matrix(rows, cols))
    if kind == "map":
        return m
    scale = draw(_UNIT_SCALES)
    return PolyMatrix(rows, cols, {(i, j): scale for i, j, _ in m.items()})


@given(_kronecker_factor(), _kronecker_factor(), st.integers(1, 3))
@example(PolyMatrix(2, 1, {}), _CYCLE, 2)  # a zero factor on the map path
@example(parse_matrix("[[x + 1, 2]]"), PolyMatrix(1, 2, {}), 1)  # on the entry path
@example(PolyMatrix.identity(1), PolyMatrix.permutation([1, 0]), 3)  # a 1x1 factor
@example(-PolyMatrix.identity(1), -PolyMatrix.identity(1), 3)  # (-1)(-1): the identity
@example(  # twice _CYCLE (x) a halved swap: a permutation
    PolyMatrix.from_rows([[0, 0, 2], [2, 0, 0], [0, 2, 0]]),
    parse_matrix("[[0, 1/2], [1/2, 0]]"),
    2,
)
@example(PolyMatrix.from_rows([[2, 2]]), parse_matrix("[[1/2]]"), 1)  # 1s, not a map
def test_kronecker_products_are_built_as_checked(a, b, copies):
    expected = naive_kronecker(PolyMatrix.identity(copies), naive_kronecker(a, b))
    _assert_built_as_checked(kronecker(a, b, copies), expected)


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
    assert product.to_rows()[0][0].is_zero()
    assert len(built) == product.nnz() == 8
    assert product == naive_mat_mul(a, b)


# ---------------------------------------------------------------------------
# the packed product kernel: sparse products with multi-term rational entries
# against the dense oracle


# Each entry comes with its negative, so entry sums cancel wholly or in part;
# the names X < x < x10 < x_1 < é are in code-point, not alphabetical, order.
_MULTI_TERM = [
    sign * parse_polynomial(text)
    for text in (
        "1/2*x^2*y - 3*y + 2/3",
        "x*y - 1/4*x^3",
        "X - x_1*é + 5/2*x10^2",
        "x^3 + x*é - 7",
    )
    for sign in (1, -1)
]
_SPARSE_ENTRY = st.one_of(st.just(ZERO), st.sampled_from(_MULTI_TERM + [ONE]))


@st.composite
def _sparse_operands(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(_dict_matrix(n, k, _SPARSE_ENTRY)), draw(_dict_matrix(k, m, _SPARSE_ENTRY))


@given(_sparse_operands())
@example((  # (p, -p) times (p, p)^T: the one entry cancels to zero
    PolyMatrix.from_rows([[_MULTI_TERM[0], _MULTI_TERM[1]]]),
    PolyMatrix.from_rows([[_MULTI_TERM[0]], [_MULTI_TERM[0]]]),
))
@example((PolyMatrix.from_rows([[_MULTI_TERM[2]]]), PolyMatrix.from_rows([[_MULTI_TERM[7]]])))
def test_sparse_products_of_multi_term_entries_match_naive(operands):
    a, b = operands
    expected = naive_mat_mul(a, b)
    product = a @ b
    dense = expected.to_rows()
    assert product == expected and product.to_rows() == dense
    assert product.nnz() == sum(not p.is_zero() for row in dense for p in row)


def test_one_by_one_products_are_the_polynomial_product():
    for p in _MULTI_TERM[::3] + [ONE, Polynomial.constant(Fraction(-2, 3))]:
        for q in _MULTI_TERM[1::3] + [Polynomial.constant(Fraction(3, 2))]:
            product = PolyMatrix.from_rows([[p]]) @ PolyMatrix.from_rows([[q]])
            assert product == PolyMatrix.from_rows([[p * q]]) == naive_mat_mul(
                PolyMatrix.from_rows([[p]]), PolyMatrix.from_rows([[q]])
            )
    # 1/2 * 2 is 1: a 1x1 product of constants can land on the map backend
    half, two = parse_matrix("[[1/2]]"), PolyMatrix.from_rows([[2]])
    assert (half @ two).is_identity()


_ELEMENTARY = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(_MULTI_TERM)),
    min_size=1,
    max_size=5,
)


@given(st.integers(2, 4), _ELEMENTARY)
@example(3, [(0, 1, _MULTI_TERM[0]), (1, 2, _MULTI_TERM[2]), (2, 0, _MULTI_TERM[5])])
def test_a_unimodular_matrix_times_its_inverse_is_the_identity_map(n, steps):
    # M is a product of elementary matrices I + c*E_ij (i != j), built with
    # the dense oracle; its inverse multiplies the I - c*E_ij in reverse order
    m = m_inv = PolyMatrix.identity(n)
    for i, j, c in steps:
        i, j = i % n, j % n
        if i == j:
            continue
        step = PolyMatrix(n, n, {(i, j): c, **{(k, k): ONE for k in range(n)}})
        back = PolyMatrix(n, n, {(i, j): -c, **{(k, k): ONE for k in range(n)}})
        m, m_inv = naive_mat_mul(step, m), naive_mat_mul(m_inv, back)
    for product in (m @ m_inv, m_inv @ m):
        assert product.is_identity()  # stored as range(n), like PolyMatrix.identity
        assert product == PolyMatrix.identity(n)


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
            dense = m.to_rows()
            assert _facts(m) == _dense_facts(dense)
            assert sorted((i, j) for i, j, _ in m.items()) == [
                (i, j) for i in range(rows) for j in range(cols) if not dense[i][j].is_zero()
            ]
            assert all(dense[i][j] == p for i, j, p in m.items())
            transposed = m.transpose()
            assert transposed.to_rows() == [list(column) for column in zip(*dense)]
            assert _facts(transposed) == _dense_facts(transposed.to_rows())
            assert transposed.transpose() == m
        for a in operands:
            for b in operands:
                assert (a == b) == (a.to_rows() == b.to_rows())


def _random_column_map(rng, rows, cols):
    k = rng.randint(0, min(rows, cols))
    column_rows = [None] * cols
    for r, c in zip(rng.sample(range(rows), k), rng.sample(range(cols), k)):
        column_rows[c] = r
    return column_rows


def test_every_sub_permutation_is_stored_as_a_column_map():
    # The backend is canonical: a 0/1 sub-permutation built from a dict of
    # ones, from dense rows or by ``permutation`` (a full one) is one matrix
    # on the map backend and answers alike.
    rng = random.Random(104)
    cases = [[None] * 3, [0, 1, 2], [2, 0, 1], [0, 1]]
    shapes = [(2, 3), (3, 3), (3, 3), (4, 2)]
    for _ in range(60):
        shapes.append((rng.randint(1, 5), rng.randint(1, 5)))
        cases.append(_random_column_map(rng, *shapes[-1]))
    for (rows, cols), column_rows in zip(shapes, cases):
        dense = [[ONE if column_rows[j] == i else ZERO for j in range(cols)] for i in range(rows)]
        by_ones = PolyMatrix(
            rows, cols, {(r, c): ONE for c, r in enumerate(column_rows) if r is not None}
        )
        built = [by_ones, PolyMatrix.from_rows(dense)]
        if rows == cols and None not in column_rows:
            built.append(PolyMatrix.permutation(column_rows))
        for m in built:
            assert m == by_ones and by_ones == m
            assert _facts(m) == _facts(by_ones) == _dense_facts(dense)
            assert m.is_sub_permutation01()
    for rows, cols in [(1, 1), (2, 3), (4, 1)]:
        zero = PolyMatrix(rows, cols, {})
        for m in (PolyMatrix(rows, cols, {(0, 0): ZERO}), PolyMatrix.from_rows([[0] * cols] * rows)):
            assert m == zero and zero == m
            assert _facts(m) == _facts(zero)
    eye = PolyMatrix.identity(4)
    by_ones = PolyMatrix(4, 4, {(k, k): 1 for k in range(4)})
    for m in (PolyMatrix.permutation([0, 1, 2, 3]), by_ones):
        assert m == eye and eye == m
        assert m.is_identity() and _facts(m) == _facts(eye)
    # entries outside {0, 1} keep the entry backend
    scaled = PolyMatrix(2, 2, {(0, 0): ONE, (1, 1): Polynomial.constant(-1)})
    assert not scaled.is_sub_permutation01() and scaled != eye


@pytest.mark.parametrize("column_map", [(0, 1), [0, 1], range(2)], ids=["tuple", "list", "range"])
def test_column_maps_are_not_entries(column_map):
    # The constructor takes a mapping of entries only; a column map is the
    # matrix module's own storage format.
    with pytest.raises(TypeError, match="build 0/1 matrices with PolyMatrix.permutation or a dict of ones"):
        PolyMatrix(2, 2, column_map)


@pytest.mark.parametrize(
    "images",
    [[0, 0], [1, 2], [0, 2, 1, 4], [-1, 0], [None, 0], [True, False], [0.0, 1]],
)
def test_permutation_rejects_non_permutations(images):
    with pytest.raises(DimensionMismatchError, match=r"^not a permutation of 0\.\.n-1$"):
        PolyMatrix.permutation(images)


def test_both_doors_read_entries_by_the_number_rule():
    # The constructor and ``from_rows`` read a value alike: a Polynomial as
    # it is, an int, Fraction or bool as a constant.
    assert PolyMatrix(2, 2, {(0, 0): 1}) == PolyMatrix.from_rows([[1, 0], [0, 0]])
    for value, expected in [
        (parse_polynomial("x + 1"), parse_polynomial("x + 1")),
        (3, Polynomial.constant(3)),
        (Fraction(-2, 3), Polynomial.constant(Fraction(-2, 3))),
        (True, ONE),
        (0, ZERO),
    ]:
        for m in (PolyMatrix(1, 2, {(0, 0): value}), PolyMatrix.from_rows([[value, 0]])):
            assert m.to_rows() == [[expected, ZERO]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolyMatrix(1, 1, {(0, 0): 0.5}),
        lambda: PolyMatrix.from_rows([[0.5]]),
        lambda: PolyMatrix(1, 1, {(0, 0): None}),
        lambda: PolyMatrix(1, 1, {(0, 0): "x"}),  # text is read only by parse_matrix
        lambda: PolyMatrix.from_rows([["x"]]),
        lambda: PolyMatrix.from_rows(["x1"]),
        lambda: PolyMatrix.from_rows("ab"),
        lambda: PolyMatrix.from_rows([[1, 2], "ab"]),
        lambda: PolyMatrix(2.0, 2, {}),
        lambda: PolyMatrix(2, True, {}),
        lambda: PolyMatrix.identity(2.0),
        lambda: PolyMatrix(2, 2, {(0.5, 0): 1}),
        lambda: PolyMatrix(2, 2, {(0, False): 1}),
        lambda: PolyMatrix(2, 2, {(2.0, 0): 1}),  # out of range too: the type is refused first
        lambda: PolyMatrix(2, 2, {(0, 0, 0): 1}),  # keys that are no pair are refused unread
        lambda: PolyMatrix(2, 2, {(0,): 1}),
        lambda: PolyMatrix(2, 2, {5: 1}),
    ],
    ids=["float-entry", "float-row", "none-entry", "string-entry", "string-in-row", "string-row",
         "string-rows", "string-second-row", "float-side", "bool-side", "identity-float-side",
         "float-index", "bool-index", "float-index-out-of-range", "triple-index", "single-index",
         "int-index"],
)
def test_doors_raise_type_error_on_inputs_they_do_not_read(build):
    with pytest.raises(TypeError):
        build()


def test_map_kronecker_past_the_guard_raises_like_the_entry_path():
    side = MAX_SIDE // 2 + 1
    on_map = PolyMatrix(side, 1, {(0, 0): ONE})
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
    # a (x) I_1 is within the guard; only its two copies are past it
    for a in (on_map, on_entries):
        with pytest.raises(SizeGuardError) as info:
            kronecker(a, PolyMatrix.identity(1), 2)
        assert str(info.value) == "result size 1048578x2 exceeds the guard (1048576 per side)"


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
                        out, expected = block2x2(*blocks), dense_block2x2(*blocks)
                        assert out.to_rows() == expected.to_rows()
                        assert out == expected
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
        out, expected = block2x2(*blocks), dense_block2x2(*blocks)
        assert out.to_rows() == expected.to_rows()
        assert out == expected


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
    blocks = [PolyMatrix(rows, cols, {}) for rows, cols in shapes]
    with pytest.raises(DimensionMismatchError) as info:
        block2x2(*blocks)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "shape, size",
    [
        pytest.param((1, MAX_SIDE // 2 + 1), "1x1048578", id="shape0"),
        pytest.param((MAX_SIDE // 2 + 1, 1), "1048578x2", id="shape1"),
    ],
)
def test_block2x2_past_the_guard_raises_like_the_stacks(shape, size):
    # a row too wide is refused at its own size before the rows are stacked;
    # rows too tall, at the stacked size
    block = PolyMatrix(*shape, {})
    with pytest.raises(SizeGuardError) as info:
        block2x2(block, block, block, block)
    assert str(info.value) == f"result size {size} exceeds the guard (1048576 per side)"
