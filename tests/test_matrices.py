import random

import pytest

from mfcat.errors import DimensionMismatchError, MatrixSyntaxError, SizeGuardError
from mfcat.matrices import (
    MAX_SIDE,
    PolyMatrix,
    direct_sum,
    hstack,
    kronecker,
    matrix_literal,
    parse_matrix,
    vstack,
)
from mfcat.polynomials import Polynomial, parse_polynomial

from support import naive_kronecker, naive_mat_mul, random_matrix


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
