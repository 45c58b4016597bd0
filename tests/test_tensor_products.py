import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfcat.axiom_suites import check_syzygy_identity
from mfcat.errors import SizeGuardError
from mfcat.factorizations import MatrixFactorization, MfMorphism, factorization_from_text, random_mf1
from mfcat.matrices import PolyMatrix, direct_sum, kronecker, parse_matrix
from mfcat.polynomials import ONE, Polynomial, parse_polynomial, random_polynomial
from mfcat.reporting import PASS
from mfcat.t_subcategory import e_object, e_power, gamma, lambda_
from mfcat.tensor_products import (
    mult_tensor,
    mult_tensor_morph_left,
    mult_tensor_morph_pair,
    mult_tensor_morph_right,
    yoshino_tensor,
)

from support import (
    dense_block2x2,
    dense_leading_diagonal,
    naive_doubled_kronecker,
    naive_kronecker,
    naive_mat_mul,
    naive_mul,
    null_homotopic_pair,
    random_matrix,
    random_mf1_morphism,
    random_valid_mf,
)


def mf_1x1(entry: str, potential: str) -> MatrixFactorization:
    return MatrixFactorization(
        parse_matrix(f"[[{entry}]]"),
        parse_matrix(f"[[{entry}]]"),
        parse_polynomial(potential),
    )


def divisor_swap_pair() -> MatrixFactorization:
    # a potential-x factorization with phi != psi
    return MatrixFactorization(
        parse_matrix("[[x, 0], [0, 1]]"),
        parse_matrix("[[1, 0], [0, x]]"),
        parse_polynomial("x"),
    )


def test_yoshino_of_two_1x1_factorizations():
    t = yoshino_tensor(mf_1x1("x", "x^2"), mf_1x1("y", "y^2"))
    assert t.phi == parse_matrix("[[x, y], [-y, x]]")
    assert t.psi == parse_matrix("[[x, -y], [y, x]]")
    assert t.potential == parse_polynomial("x^2 + y^2")
    assert t.size == 2


def test_yoshino_of_trivial_pair():
    e = e_object()
    t = yoshino_tensor(e, e)
    assert t.phi == parse_matrix("[[1, 1], [-1, 1]]")
    assert t.psi == parse_matrix("[[1, -1], [1, 1]]")
    assert t.potential == Polynomial.constant(2)


def test_yoshino_bookkeeping_on_random_pairs():
    rng = random.Random(71)
    for _ in range(60):
        x = random_valid_mf(rng, rng.randint(1, 3))
        y = random_valid_mf(rng, rng.randint(1, 3))
        t = yoshino_tensor(x, y)  # validated on construction
        assert t.potential == x.potential + y.potential
        assert t.size == 2 * x.size * y.size


def test_mult_tensor_of_trivial_pair_is_e_squared():
    e = e_object()
    assert mult_tensor(e, e) == e_power(2)


def test_mult_tensor_of_two_1x1_factorizations():
    t = mult_tensor(mf_1x1("x", "x^2"), mf_1x1("y", "y^2"))
    assert t.phi == parse_matrix("[[x*y, 0], [0, x*y]]")
    assert t.psi == t.phi
    assert t.potential == parse_polynomial("x^2*y^2")


def test_mult_tensor_with_e_doubles_blocks():
    x = divisor_swap_pair()
    t = mult_tensor(e_object(), x)
    assert t.phi == direct_sum(x.phi, x.phi)
    assert t.psi == direct_sum(x.psi, x.psi)
    assert mult_tensor(x, e_object()) == t


def test_mult_tensor_bookkeeping_on_random_pairs():
    rng = random.Random(72)
    for _ in range(60):
        x = random_valid_mf(rng, rng.randint(1, 3))
        y = random_valid_mf(rng, rng.randint(1, 3))
        t = mult_tensor(x, y)
        assert t.potential == x.potential * y.potential
        assert t.size == 2 * x.size * y.size


def test_mult_tensor_size_guard():
    big = e_power(21)  # size 2^20, at the guard boundary
    with pytest.raises(SizeGuardError):
        mult_tensor(big, big)


def test_morph_left_identity_becomes_identity():
    e = e_object()
    whiskered = mult_tensor_morph_left(e.identity_morphism(), e)
    assert whiskered == e_power(2).identity_morphism()


def test_morph_right_on_e_duplicates_components():
    rng = random.Random(73)
    src = random_mf1(7, 2, 4)
    tgt = random_mf1(8, 2, 4)
    mu = random_mf1_morphism(rng, src, tgt)
    whiskered = mult_tensor_morph_right(e_object(), mu)
    assert whiskered.alpha == direct_sum(mu.alpha, mu.alpha)
    assert whiskered.beta == direct_sum(mu.beta, mu.beta)


def test_e_whisker_commutes_left_right():
    # e (x) mu == mu (x) e for any morphism of factorizations of 1
    rng = random.Random(74)
    for _ in range(40):
        src = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        tgt = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        mu = random_mf1_morphism(rng, src, tgt)
        assert mult_tensor_morph_right(e_object(), mu) == mult_tensor_morph_left(
            mu, e_object()
        )


def test_whisker_by_identity_is_identity():
    # Both components are I_2 (x) (I_2 (x) I_3), built densely.
    x = random_mf1(11, 2, 4)
    y = random_mf1(12, 3, 4)
    whiskered = mult_tensor_morph_right(x, y.identity_morphism())
    eye = naive_doubled_kronecker(PolyMatrix.identity(2), PolyMatrix.identity(3))
    assert whiskered.alpha == whiskered.beta == eye
    assert whiskered.source == whiskered.target == mult_tensor(x, y)


def test_pair_tensor_consistent_with_whiskering():
    # Whiskering on either side and pairing with an identity morphism give
    # the dense I_2 (x) (alpha (x) I) and I_2 (x) (I (x) alpha).
    rng = random.Random(76)
    src = random_mf1(21, 2, 4)
    tgt = random_mf1(22, 2, 4)
    zf = random_mf1_morphism(rng, src, tgt)
    y = random_mf1(23, 3, 4)
    eye = PolyMatrix.identity(y.size)
    on_right = (naive_doubled_kronecker(zf.alpha, eye), naive_doubled_kronecker(zf.beta, eye))
    on_left = (naive_doubled_kronecker(eye, zf.alpha), naive_doubled_kronecker(eye, zf.beta))
    for whiskered, expected in (
        (mult_tensor_morph_left(zf, y), on_right),
        (mult_tensor_morph_pair(zf, y.identity_morphism()), on_right),
        (mult_tensor_morph_right(y, zf), on_left),
        (mult_tensor_morph_pair(y.identity_morphism(), zf), on_left),
    ):
        assert (whiskered.alpha, whiskered.beta) == expected


def test_identity_preservation():
    rng = random.Random(77)
    for _ in range(30):
        x = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        y = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        assert mult_tensor_morph_pair(
            x.identity_morphism(), y.identity_morphism()
        ) == mult_tensor(x, y).identity_morphism()


def test_interchange_law():
    # (g o f) (x) (g' o f') == (g (x) g') o (f (x) f')
    rng = random.Random(78)
    for _ in range(60):
        a1, a2, a3 = (
            random_mf1(rng.randrange(10**6), rng.randint(1, 3), 3) for _ in range(3)
        )
        b1, b2, b3 = (
            random_mf1(rng.randrange(10**6), rng.randint(1, 3), 3) for _ in range(3)
        )
        f = random_mf1_morphism(rng, a1, a2)
        g = random_mf1_morphism(rng, a2, a3)
        fp = random_mf1_morphism(rng, b1, b2)
        gp = random_mf1_morphism(rng, b2, b3)
        lhs = mult_tensor_morph_pair(g.compose(f), gp.compose(fp))
        rhs = mult_tensor_morph_pair(g, gp).compose(mult_tensor_morph_pair(f, fp))
        assert lhs == rhs


def test_syzygy_identity_examples():
    e = e_object()
    assert check_syzygy_identity(e, e).verdict == PASS
    x = mf_1x1("x", "x^2")
    y = mf_1x1("y", "y^2")
    report = check_syzygy_identity(x, y)
    assert report.verdict == PASS
    # independent expansion of both sides
    lhs = mult_tensor(x, y).syzygy()
    rhs = mult_tensor(x.syzygy(), y.syzygy())
    assert lhs == rhs


def test_syzygy_identity_on_random_pairs():
    rng = random.Random(80)
    for _ in range(200):
        x = random_valid_mf(rng, rng.randint(1, 3))
        y = random_valid_mf(rng, rng.randint(1, 3))
        assert check_syzygy_identity(x, y).verdict == PASS


def test_syzygy_inequalities_on_asymmetric_pair():
    # with phi != psi the swapped tensors genuinely differ
    x = divisor_swap_pair()
    assert mult_tensor(x, x) != mult_tensor(x.syzygy(), x.syzygy())
    assert mult_tensor(x.syzygy(), x) != mult_tensor(x, x.syzygy())


def test_syzygy_inequalities_degenerate_on_e():
    # e is its own syzygy, so both inequalities degenerate to equalities
    e = e_object()
    assert mult_tensor(e, e) == mult_tensor(e.syzygy(), e.syzygy())
    assert mult_tensor(e.syzygy(), e) == mult_tensor(e, e.syzygy())


def test_syzygy_inequalities_on_random_asymmetric_pairs():
    rng = random.Random(81)
    for _ in range(50):
        x = random_valid_mf(rng, 2, asymmetric=True)
        y = random_valid_mf(rng, rng.randint(1, 3), asymmetric=True)
        assert mult_tensor(x, y) != mult_tensor(x.syzygy(), y.syzygy())
        assert mult_tensor(x.syzygy(), y) != mult_tensor(x, y.syzygy())


def test_doubled_kronecker_matches_naive_oracle():
    rng = random.Random(74)
    eye2, eye3 = PolyMatrix.identity(2), PolyMatrix.identity(3)
    wide, tall = lambda_(e_power(2)).alpha, gamma(e_power(2)).alpha
    cases = [
        (eye2, random_matrix(rng, 2, 3)),
        (random_matrix(rng, 3, 2), eye3),
        (wide, tall),
        (tall, wide),
        (wide, random_matrix(rng, 2, 2)),
        (eye3, tall),
        (PolyMatrix(2, 2, {}), random_matrix(rng, 1, 3)),
    ]
    for _ in range(40):
        shapes = [rng.randint(1, 3) for _ in range(4)]
        cases.append(
            (random_matrix(rng, *shapes[:2], 2), random_matrix(rng, *shapes[2:], 2))
        )
    for a, b in cases:
        block = naive_kronecker(a, b)
        assert kronecker(a, b, 2) == direct_sum(block, block)


def test_doubled_kronecker_of_identities_stays_on_the_identity_backend():
    # The O(1) e-power path rests on this: I (x) I doubles to an identity
    # stored as the column map range(n).
    for n, m in [(1, 1), (2, 4), (1 << 9, 1 << 9)]:
        doubled = kronecker(PolyMatrix.identity(n), PolyMatrix.identity(m), 2)
        assert doubled.is_identity() and doubled._map == range(2 * n * m)
        assert doubled.rows == 2 * n * m
    explicit = PolyMatrix(2, 2, {(0, 0): ONE, (1, 1): ONE})
    doubled = kronecker(explicit, PolyMatrix.identity(3), 2)
    assert doubled.is_identity() and doubled._map == range(12)


# ---------------------------------------------------------------------------
# the closed constructions wrap their results unchecked: cross-check them


INTRO = factorization_from_text(
    (Path(__file__).resolve().parent.parent / "samples" / "intro.mf").read_text()
)
KINDS = ("mf1", "zero", "intro", "rank1")


def _object(kind, seed):
    """A valid object of the given kind: a random MF(1) object or potential-0
    object of size 1-3, the x^2 + y^2 sample, or a rank-one ([a], [b]) of a*b."""
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    if kind == "mf1":
        return random_mf1(seed, size, rng.randint(0, 4))
    if kind == "zero":
        return random_valid_mf(rng, size, zero=True)
    if kind == "intro":
        return INTRO
    a, b = (random_polynomial(rng, allow_zero=False) for _ in range(2))
    return MatrixFactorization(PolyMatrix(1, 1, {(0, 0): a}), PolyMatrix(1, 1, {(0, 0): b}), a * b)


def _revalidated(x):
    """``x`` through the validating constructor, as (phi, psi, potential)."""
    y = MatrixFactorization(x.phi, x.psi, x.potential)
    return y.phi, y.psi, y.potential


def _revalidated_morphism(z):
    w = MfMorphism(z.source, z.target, z.alpha, z.beta)
    return _revalidated(w.source), _revalidated(w.target), w.alpha, w.beta


def _oracle_mult(x, y):
    return (
        naive_doubled_kronecker(x.phi, y.phi),
        naive_doubled_kronecker(x.psi, y.psi),
        naive_mul(x.potential, y.potential),
    )


def _oracle_yoshino(x, y):
    eye_n, eye_m = dense_leading_diagonal(x.size, x.size), dense_leading_diagonal(y.size, y.size)
    minus_n = PolyMatrix.from_rows([[-int(i == j) for j in range(x.size)] for i in range(x.size)])
    phi_block, psi_block = naive_kronecker(x.phi, eye_m), naive_kronecker(x.psi, eye_m)
    return (
        dense_block2x2(phi_block, naive_kronecker(eye_n, y.phi),
                       naive_kronecker(minus_n, y.psi), psi_block),
        dense_block2x2(psi_block, naive_kronecker(minus_n, y.phi),
                       naive_kronecker(eye_n, y.psi), phi_block),
        x.potential + y.potential,
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(KINDS), st.integers(0, 2**32), st.sampled_from(KINDS), st.integers(0, 2**32))
def test_closed_constructions_validate_and_match_the_dense_oracle(kind_x, seed_x, kind_y, seed_y):
    # Nothing re-proves these results when they are built, so a Kronecker or
    # block-placement bug would surface only here.
    x, y = _object(kind_x, seed_x), _object(kind_y, seed_y)
    assert _revalidated(mult_tensor(x, y)) == _oracle_mult(x, y)
    assert _revalidated(yoshino_tensor(x, y)) == _oracle_yoshino(x, y)
    swapped = x.syzygy()
    assert _revalidated(swapped) == (x.psi, x.phi, x.potential)

    rng = random.Random(seed_x ^ seed_y)
    there = MfMorphism(x, swapped, *null_homotopic_pair(rng, x, swapped))
    back = MfMorphism(swapped, x, *null_homotopic_pair(rng, swapped, x))
    on_y = MfMorphism(y, y, *null_homotopic_pair(rng, y, y))
    eye, x_parts = dense_leading_diagonal(x.size, x.size), (x.phi, x.psi, x.potential)
    assert _revalidated_morphism(x.identity_morphism()) == (x_parts, x_parts, eye, eye)
    assert _revalidated_morphism(back.compose(there)) == (
        x_parts, x_parts,
        naive_mat_mul(back.alpha, there.alpha), naive_mat_mul(back.beta, there.beta),
    )
    for zf, zg in ((there, on_y), (there, y.identity_morphism()), (x.identity_morphism(), on_y)):
        assert _revalidated_morphism(mult_tensor_morph_pair(zf, zg)) == (
            _oracle_mult(zf.source, zg.source),
            _oracle_mult(zf.target, zg.target),
            naive_doubled_kronecker(zf.alpha, zg.alpha),
            naive_doubled_kronecker(zf.beta, zg.beta),
        )
