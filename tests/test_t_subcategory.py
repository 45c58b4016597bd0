import random

import pytest

from mfcat.errors import (
    AssociativityMismatchError,
    MfcatError,
    NotEquivalentError,
    ShapeMismatchError,
)
from mfcat.factorizations import MatrixFactorization, MfMorphism, random_mf1
from mfcat.matrices import PolyMatrix, direct_sum, parse_matrix
from mfcat.polynomials import Polynomial
from mfcat.t_subcategory import (
    _canonical_pair,
    associator,
    connecting_morphism,
    e_object,
    e_power,
    find_permutation_witness,
    gamma,
    is_e_power,
    is_t_morphism,
    l_iso,
    lambda_,
    rho,
)
from mfcat.tensor_products import (
    mult_tensor,
    mult_tensor_morph_left,
    mult_tensor_morph_pair,
    mult_tensor_morph_right,
)

from support import (
    dense_hstack,
    dense_leading_diagonal,
    dense_vstack,
    random_mf1_morphism,
    random_sub_permutation,
    random_t_morphism,
)

UNIMODULAR_PAIR = MatrixFactorization(
    parse_matrix("[[4, 3], [1, 1]]"),
    parse_matrix("[[1, -3], [-1, 4]]"),
    Polynomial.one(),
)


def test_e_power_ladder():
    assert e_power(1) == e_object()
    assert e_power(2).phi == PolyMatrix.identity(2)
    assert e_power(3).phi == PolyMatrix.identity(4)
    for n in range(1, 9):
        assert e_power(n).size == 1 << (n - 1)
        assert e_power(n + 1) == mult_tensor(e_object(), e_power(n))


def test_e_object_is_one_shared_value():
    assert e_object() is e_object()
    eye = PolyMatrix.identity(1)
    assert e_object() == MatrixFactorization(eye, eye, Polynomial.one())


@pytest.mark.parametrize("n", [0, -3])
def test_e_power_below_1_is_a_library_error(n):
    with pytest.raises(MfcatError) as info:
        e_power(n)
    assert str(info.value) == "e_power requires n >= 1"


def test_is_e_power():
    assert is_e_power(e_power(4))
    assert not is_e_power(UNIMODULAR_PAIR)
    three = PolyMatrix.identity(3)
    assert not is_e_power(MatrixFactorization(three, three, Polynomial.one()))


def test_is_t_morphism_accepts_zeta1():
    column = parse_matrix("[[1], [0]]")
    zeta1 = MfMorphism(e_object(), e_power(2), column, column)
    assert is_t_morphism(zeta1)


def test_is_t_morphism_rejects_non_e_power_endpoints():
    assert not is_t_morphism(gamma(UNIMODULAR_PAIR))


def test_is_t_morphism_rejects_entries_outside_01():
    two = parse_matrix("[[2]]")
    doubling = MfMorphism(e_object(), e_object(), two, two)
    assert not is_t_morphism(doubling)


def test_connecting_morphism_cases():
    down = connecting_morphism(2, 1)
    assert down.alpha == parse_matrix("[[1, 0]]")
    up = connecting_morphism(1, 2)
    assert up.alpha == parse_matrix("[[1], [0]]")
    level = connecting_morphism(3, 3)
    assert level.alpha == PolyMatrix.identity(4)


def _stacked_connecting_matrix(m: int, p: int) -> PolyMatrix:
    # the three-way stacked construction, kept as a dense oracle
    src_size, tgt_size = 1 << (m - 1), 1 << (p - 1)
    if m > p:
        return dense_hstack(
            PolyMatrix.identity(tgt_size),
            PolyMatrix(tgt_size, src_size - tgt_size, {}),
        )
    if m < p:
        return dense_vstack(
            PolyMatrix.identity(src_size),
            PolyMatrix(tgt_size - src_size, src_size, {}),
        )
    return PolyMatrix.identity(src_size)


def test_connecting_morphism_matches_stacked_construction():
    for m in range(1, 5):
        for p in range(1, 5):
            cm = connecting_morphism(m, p)
            expected = _stacked_connecting_matrix(m, p)
            assert cm.alpha == expected and cm.beta == expected


def _identity_object(n: int) -> MatrixFactorization:
    return MatrixFactorization(PolyMatrix.identity(n), PolyMatrix.identity(n), Polynomial.one())


_DIVIDING_SHAPES = sorted(
    {shape for n in range(1, 9) for shape in ((n, 2 * n), (2 * n, n), (n, n))}
    | {(1 << p, 1 << m) for p in range(5) for m in range(5)}
)


@pytest.mark.parametrize("rows, cols", _DIVIDING_SHAPES)
def test_canonical_pair_is_the_leading_diagonal(rows, cols):
    # d = u (x) I, u the first unit vector, against the dense partial
    # identity of shape target x source for every shape one side divides.
    pair = _canonical_pair(_identity_object(cols), _identity_object(rows))
    expected = dense_leading_diagonal(rows, cols)
    assert pair.alpha == expected and pair.beta == expected
    assert pair.alpha.to_rows() == expected.to_rows()
    assert pair.alpha.is_sub_permutation01()


@pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3), (6, 4)])
def test_canonical_pair_refuses_sides_that_do_not_divide(rows, cols):
    with pytest.raises(ShapeMismatchError):
        _canonical_pair(_identity_object(cols), _identity_object(rows))


def test_unitor_matrices_match_stacked_construction():
    for n in range(1, 5):
        column = dense_vstack(PolyMatrix.identity(n), PolyMatrix(n, n, {}))
        row = dense_hstack(PolyMatrix.identity(n), PolyMatrix(n, n, {}))
        square = dense_vstack(row, dense_hstack(PolyMatrix(n, n, {}), PolyMatrix.identity(n)))
        for obj in (random_mf1(n, n, 3), MatrixFactorization(
            PolyMatrix.identity(n), PolyMatrix.identity(n), Polynomial.one()
        )):
            assert gamma(obj).alpha == column and gamma(obj).beta == column
            assert lambda_(obj).alpha == row and lambda_(obj).beta == row
            assert rho(obj).alpha == row and rho(obj).beta == row
            assert l_iso(obj).alpha == square and l_iso(obj).beta == square


def test_is_identity_agrees_with_comparing_to_the_identity_morphism():
    rng = random.Random(22)
    morphisms = []
    for obj in (e_object(), e_power(3), UNIMODULAR_PAIR, random_mf1(5, 3, 4)):
        n = obj.size
        eye_entries = PolyMatrix(n, n, {(k, k): Polynomial.one() for k in range(n)})
        morphisms += [
            obj.identity_morphism(),
            MfMorphism(obj, obj, eye_entries, eye_entries),  # from entries; stored as range(n)
            lambda_(obj).compose(gamma(obj)),
            gamma(obj).compose(lambda_(obj)),
            l_iso(obj),
        ]
    morphisms += [connecting_morphism(m, p) for m in range(1, 4) for p in range(1, 4)]
    for _ in range(20):
        obj = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        morphisms.append(random_mf1_morphism(rng, obj, obj))
    verdicts = []
    for morphism in morphisms:
        # component-wise equality; a shape mismatch compares unequal
        expected = morphism == morphism.source.identity_morphism()
        assert morphism.is_identity() == expected
        verdicts.append(expected)
    assert lambda_(UNIMODULAR_PAIR).compose(gamma(UNIMODULAR_PAIR)).is_identity()
    assert not gamma(UNIMODULAR_PAIR).compose(lambda_(UNIMODULAR_PAIR)).is_identity()
    assert True in verdicts and False in verdicts


def test_connecting_morphisms_are_nonzero_t_morphisms():
    # one-step connectedness over a grid of powers
    for m in range(1, 7):
        for p in range(1, 7):
            cm = connecting_morphism(m, p)
            assert cm.alpha.nnz() + cm.beta.nnz() > 0
            assert is_t_morphism(cm)


def test_t_composition_closure():
    rng = random.Random(17)
    for _ in range(200):
        m, p, q = (rng.randint(1, 4) for _ in range(3))
        f = MfMorphism(
            e_power(m),
            e_power(p),
            *(random_sub_permutation(rng, 1 << (p - 1), 1 << (m - 1)),) * 2,
        )
        g = MfMorphism(
            e_power(p),
            e_power(q),
            *(random_sub_permutation(rng, 1 << (q - 1), 1 << (p - 1)),) * 2,
        )
        assert is_t_morphism(g.compose(f))


def test_gamma_at_e_is_the_column_section():
    assert gamma(e_object()).alpha == parse_matrix("[[1], [0]]")


def test_gamma_at_e_squared():
    expected = parse_matrix("[[1, 0], [0, 1], [0, 0], [0, 0]]")
    assert gamma(e_power(2)).alpha == expected


def test_gamma_on_general_object_validates():
    morphism = gamma(UNIMODULAR_PAIR)
    assert morphism.source == UNIMODULAR_PAIR
    assert morphism.target == mult_tensor(e_object(), UNIMODULAR_PAIR)


def test_lambda_at_e_is_the_row_retraction():
    assert lambda_(e_object()).alpha == parse_matrix("[[1, 0]]")


def test_lambda_gamma_is_identity_but_not_reversed():
    for obj in (e_object(), e_power(3), UNIMODULAR_PAIR):
        assert lambda_(obj).compose(gamma(obj)) == obj.identity_morphism()
        reverse = gamma(obj).compose(lambda_(obj))
        n = obj.size
        assert reverse.alpha == direct_sum(PolyMatrix.identity(n), PolyMatrix(n, n, {}))
        assert reverse != mult_tensor(e_object(), obj).identity_morphism()


def test_rho_equals_lambda_value_wise():
    for obj in (e_object(), e_power(2), UNIMODULAR_PAIR):
        assert rho(obj) == lambda_(obj)
        # both tensor products with e are the same object
        assert mult_tensor(obj, e_object()) == mult_tensor(e_object(), obj)


def test_l_iso_is_identity_pair_and_self_inverse():
    morphism = l_iso(e_object())
    assert morphism.alpha == PolyMatrix.identity(2)
    composed = morphism.compose(morphism)
    assert composed == morphism.source.identity_morphism()
    l_gen = l_iso(UNIMODULAR_PAIR)
    assert l_gen.source == l_gen.target


def test_associator_on_e_powers():
    small = associator(e_object(), e_object(), e_object())
    assert small.alpha == PolyMatrix.identity(4)
    big = associator(e_power(2), e_object(), e_power(2))
    assert big.alpha == PolyMatrix.identity(16)
    assert big.source == big.target


def test_associator_rejects_noncentral_leftmost_factor():
    swap = parse_matrix("[[0, 1], [1, 0]]")
    involution = MatrixFactorization(swap, swap, Polynomial.one())
    with pytest.raises(AssociativityMismatchError):
        associator(involution, e_object(), e_object())
    # but it is fine with the non-central object in the rightmost slot
    assert associator(e_object(), e_object(), involution).alpha == PolyMatrix.identity(8)


def test_associator_naturality_for_identity_left_leg():
    # the naturality square for the identity associator asks the doubled map
    # tensor to be associative: D(af (x) D(ag (x) ah)) == D(D(af (x) ag) (x) ah),
    # which holds exactly when the left leg's components are Kronecker-central
    # (identity or zero pairs in particular)
    rng = random.Random(18)
    for _ in range(50):
        g, h = (random_t_morphism(rng, 3) for _ in range(2))
        f = rng.choice([e_object(), e_power(2), e_power(3)]).identity_morphism()
        lhs = mult_tensor_morph_pair(f, mult_tensor_morph_pair(g, h)).compose(
            associator(f.source, g.source, h.source)
        )
        rhs = associator(f.target, g.target, h.target).compose(
            mult_tensor_morph_pair(mult_tensor_morph_pair(f, g), h)
        )
        assert lhs == rhs


def test_doubled_map_tensor_is_not_associative_in_general():
    # the explicit boundary: with the retraction zeta2 = ((1,0),(1,0)) in the
    # left leg the two bracketings of the triple map tensor differ literally
    row = parse_matrix("[[1, 0]]")
    zeta2 = MfMorphism(e_power(2), e_object(), row, row)
    lhs = mult_tensor_morph_pair(zeta2, mult_tensor_morph_pair(zeta2, zeta2))
    rhs = mult_tensor_morph_pair(mult_tensor_morph_pair(zeta2, zeta2), zeta2)
    assert lhs.alpha != rhs.alpha
    # both are still valid morphisms between the correspondingly bracketed
    # objects, and their endpoints even coincide here (all matrices identity)
    assert lhs.source == rhs.source and lhs.target == rhs.target


def test_gamma_naturality_on_t_morphisms():
    # (e (x) mu) o gamma == gamma o mu
    rng = random.Random(19)
    for _ in range(100):
        mu = random_t_morphism(rng, 4)
        lhs = mult_tensor_morph_right(e_object(), mu).compose(gamma(mu.source))
        rhs = gamma(mu.target).compose(mu)
        assert lhs == rhs


def test_l_naturality_via_whisker_symmetry():
    # the two e-whiskerings agree, making the swap l natural
    rng = random.Random(20)
    for _ in range(100):
        mu = random_t_morphism(rng, 4)
        assert mult_tensor_morph_right(e_object(), mu) == mult_tensor_morph_left(
            mu, e_object()
        )


def test_find_permutation_witness_frozen_instance():
    a = parse_matrix("[[1, 0], [0, 0], [0, 1], [0, 0]]")
    b = parse_matrix("[[1, 0], [0, 1], [0, 0], [0, 0]]")
    witness = find_permutation_witness(a, b)
    expected = parse_matrix(
        "[[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]"
    )
    assert witness == expected
    assert witness @ a == b


def test_find_permutation_witness_identity_case():
    a = parse_matrix("[[1, 0], [0, 1], [0, 0]]")
    assert find_permutation_witness(a, a) == PolyMatrix.identity(3)


def test_find_permutation_witness_not_equivalent():
    zero = PolyMatrix(2, 2, {})
    one = parse_matrix("[[1, 0], [0, 0]]")
    with pytest.raises(NotEquivalentError):
        find_permutation_witness(zero, one)
    with pytest.raises(NotEquivalentError):
        find_permutation_witness(one, parse_matrix("[[0, 1], [0, 0]]"))


def test_find_permutation_witness_rejects_non_01_matrices():
    with pytest.raises(NotEquivalentError):
        find_permutation_witness(parse_matrix("[[x]]"), parse_matrix("[[x]]"))


def test_find_permutation_witness_properties_on_random_pairs():
    rng = random.Random(21)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_sub_permutation(rng, rows, cols)
        images = list(range(rows))
        rng.shuffle(images)
        b = PolyMatrix.permutation(images) @ a
        witness = find_permutation_witness(a, b)
        assert witness.is_permutation_matrix()
        assert witness @ a == b
        assert witness @ witness.transpose() == PolyMatrix.identity(rows)
