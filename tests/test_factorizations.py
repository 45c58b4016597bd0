import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mfcat.errors import (
    ComposabilityError,
    MfFileError,
    NotSquareError,
    PotentialMismatchError,
    ProductMismatchError,
    ShapeMismatchError,
    SizeMismatchError,
    SquareFailureError,
)
from mfcat.factorizations import (
    MatrixFactorization,
    MfMorphism,
    factorization_from_text,
    factorization_to_text,
    random_mf1,
)
from mfcat.matrices import PolyMatrix, parse_matrix
from mfcat.polynomials import ONE, ZERO, Polynomial, parse_polynomial, random_polynomial
from mfcat.tensor_products import mult_tensor, mult_tensor_morph_pair, yoshino_tensor

from support import (
    naive_mat_mul,
    null_homotopic_pair,
    random_matrix,
    random_mf1_morphism,
    random_valid_mf,
)


def intro_factorization():
    return MatrixFactorization(
        parse_matrix("[[x, -y], [y, x]]"),
        parse_matrix("[[x, y], [-y, x]]"),
        parse_polynomial("x^2 + y^2"),
    )


def trivial_e():
    eye = PolyMatrix.identity(1)
    return MatrixFactorization(eye, eye, ONE)


def test_intro_example_validates():
    assert intro_factorization().size == 2


def test_trivial_factorization():
    e = trivial_e()
    assert e.size == 1
    assert e.phi == PolyMatrix.identity(1)


def test_product_mismatch_carries_coordinates():
    with pytest.raises(ProductMismatchError) as info:
        MatrixFactorization(
            parse_matrix("[[x]]"), parse_matrix("[[x]]"), parse_polynomial("x")
        )
    assert info.value.coords == (0, 0)
    assert "phi*psi" in str(info.value)


def test_not_square_and_size_mismatch():
    with pytest.raises(NotSquareError):
        MatrixFactorization(
            PolyMatrix(1, 2, {}), PolyMatrix(2, 1, {}), ZERO
        )
    with pytest.raises(SizeMismatchError):
        MatrixFactorization(
            PolyMatrix.identity(2), PolyMatrix.identity(3), ONE
        )


@pytest.mark.parametrize(
    "phi, psi, potential",
    [
        (PolyMatrix.identity(1), PolyMatrix.identity(1), 1),
        (PolyMatrix.identity(1), PolyMatrix.identity(1), "1"),
        ([[1]], PolyMatrix.identity(1), ONE),
        (PolyMatrix.identity(1), [[1]], ONE),
    ],
    ids=["int-potential", "str-potential", "list-phi", "list-psi"],
)
def test_the_object_door_refuses_values_it_would_have_to_coerce(
    monkeypatch, phi, psi, potential
):
    # One TypeError, before any product is formed; the door coerces nothing.
    monkeypatch.setattr(PolyMatrix, "__matmul__", lambda a, b: pytest.fail("a product was formed"))
    with pytest.raises(TypeError, match="Polynomial.constant"):
        MatrixFactorization(phi, psi, potential)


@pytest.mark.parametrize(
    "make",
    [
        lambda e, eye: MfMorphism(e, e, [[1]], [[1]]),
        lambda e, eye: MfMorphism(e, e, eye, [[1]]),
        lambda e, eye: MfMorphism(None, e, eye, eye),
        lambda e, eye: MfMorphism(e, "e", eye, eye),
    ],
    ids=["list-components", "list-beta", "none-source", "str-target"],
)
def test_the_morphism_door_refuses_values_of_the_wrong_type(monkeypatch, make):
    # One TypeError that names what the door takes, where these used to end
    # in an AttributeError: before the potentials are read and before any
    # product is formed.
    e, eye = trivial_e(), PolyMatrix.identity(1)
    monkeypatch.setattr(PolyMatrix, "__matmul__", lambda a, b: pytest.fail("a product was formed"))
    with pytest.raises(TypeError, match=r"^a morphism takes two MatrixFactorization endpoints "
                       r"and two PolyMatrix components; PolyMatrix\.from_rows makes one"):
        make(e, eye)


def test_zero_potential_accepted():
    z = PolyMatrix(2, 2, {})
    x = MatrixFactorization(z, random_matrix(random.Random(0), 2, 2), ZERO)
    assert x.potential.is_zero()


def test_morphism_identity_and_zeta1():
    e = trivial_e()
    assert e.identity_morphism().alpha == PolyMatrix.identity(1)
    e2 = MatrixFactorization(
        PolyMatrix.identity(2), PolyMatrix.identity(2), ONE
    )
    column = parse_matrix("[[1], [0]]")
    zeta1 = MfMorphism(e, e2, column, column)
    assert zeta1.alpha.nnz() == zeta1.beta.nnz() == 1


def test_morphism_square_failure():
    x = intro_factorization()
    with pytest.raises(SquareFailureError) as info:
        MfMorphism(x, x, PolyMatrix.identity(2), PolyMatrix(2, 2, {}))
    assert info.value.which == "phi-square"


def test_morphism_potential_and_shape_errors():
    e = trivial_e()
    x = intro_factorization()
    with pytest.raises(PotentialMismatchError):
        MfMorphism(e, x, PolyMatrix(2, 1, {}), PolyMatrix(2, 1, {}))
    e2 = MatrixFactorization(
        PolyMatrix.identity(2), PolyMatrix.identity(2), ONE
    )
    with pytest.raises(ShapeMismatchError):
        MfMorphism(e, e2, PolyMatrix(1, 2, {}), PolyMatrix(1, 2, {}))


def test_zero_morphism_is_accepted():
    x = intro_factorization()
    zero = MfMorphism(x, x, PolyMatrix(2, 2, {}), PolyMatrix(2, 2, {}))
    assert zero.alpha.nnz() == zero.beta.nnz() == 0


def test_compose_section_retraction():
    e = trivial_e()
    e2 = MatrixFactorization(
        PolyMatrix.identity(2), PolyMatrix.identity(2), ONE
    )
    zeta1 = MfMorphism(e, e2, parse_matrix("[[1], [0]]"), parse_matrix("[[1], [0]]"))
    zeta2 = MfMorphism(e2, e, parse_matrix("[[1, 0]]"), parse_matrix("[[1, 0]]"))
    assert zeta2.compose(zeta1) == e.identity_morphism()
    wrong_way = zeta1.compose(zeta2)
    assert wrong_way != e2.identity_morphism()
    assert wrong_way.alpha == parse_matrix("[[1, 0], [0, 0]]")


def test_compose_identity_is_neutral():
    rng = random.Random(6)
    src = random_mf1(1, 2, 4)
    tgt = random_mf1(2, 3, 4)
    f = random_mf1_morphism(rng, src, tgt)
    assert tgt.identity_morphism().compose(f) == f
    assert f.compose(src.identity_morphism()) == f


def test_compose_rejects_mismatched_endpoints():
    rng = random.Random(13)
    a, b, c = (random_mf1(s, 2, 3) for s in (1, 2, 3))
    f = random_mf1_morphism(rng, a, b)
    g = random_mf1_morphism(rng, a, c)
    with pytest.raises(ComposabilityError):
        g.compose(f)


def test_composition_associative_and_unital_on_random_triples():
    rng = random.Random(2024)
    for _ in range(200):
        sizes = [rng.randint(1, 3) for _ in range(4)]
        objs = [random_mf1(rng.randrange(10**6), s, 3) for s in sizes]
        f = random_mf1_morphism(rng, objs[0], objs[1])
        g = random_mf1_morphism(rng, objs[1], objs[2])
        h = random_mf1_morphism(rng, objs[2], objs[3])
        assert h.compose(g.compose(f)) == h.compose(g).compose(f)
        assert f.compose(objs[0].identity_morphism()) == f


def test_syzygy_swaps_and_is_involution():
    x = intro_factorization()
    s = x.syzygy()
    assert s.phi == x.psi and s.psi == x.phi
    assert s.potential == x.potential and s.size == x.size
    assert s.syzygy() == x
    e = trivial_e()
    assert e.syzygy() == e


def test_mf_equality():
    x = intro_factorization()
    assert x == x
    e = trivial_e()
    e2 = MatrixFactorization(
        PolyMatrix.identity(2), PolyMatrix.identity(2), ONE
    )
    assert e != e2
    assert x != x.syzygy()  # phi != psi here


def test_random_mf1_empty_product_is_identity():
    x = random_mf1(123, 3, 0)
    assert x.phi == PolyMatrix.identity(3)
    assert x.psi == PolyMatrix.identity(3)


def test_random_mf1_is_validated_and_deterministic():
    for seed in range(8):
        x = random_mf1(seed, 2, 5)
        assert x.phi @ x.psi == PolyMatrix.identity(2)
        assert x == random_mf1(seed, 2, 5)
        assert x.syzygy().syzygy() == x  # the swap is an involution
    assert random_mf1(0, 1, 5).size == 1  # size 1 only uses sign flips


def test_transvection_inverse_shape():
    # a single shear and its inverse multiply to the identity
    p = parse_polynomial("x")
    fwd = parse_matrix("[[1, x], [0, 1]]")
    back = parse_matrix("[[1, -x], [0, 1]]")
    MatrixFactorization(fwd, back, ONE)
    assert fwd @ back == PolyMatrix.identity(2)
    assert p is not None


def test_morphism_determined_by_one_component_in_mf1():
    # for (M, M^-1) objects, beta = M2^-1 * alpha * M1 always yields a morphism
    rng = random.Random(55)
    for _ in range(100):
        src = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        tgt = random_mf1(rng.randrange(10**6), rng.randint(1, 3), 4)
        alpha = random_matrix(rng, tgt.size, src.size)
        beta = tgt.psi @ alpha @ src.phi
        MfMorphism(src, tgt, alpha, beta)  # the phi-square, which implies the psi-square
        recovered = tgt.psi @ alpha @ src.phi
        assert recovered == beta


def test_perturbed_beta_fails_validation():
    rng = random.Random(56)
    src = random_mf1(100, 2, 4)
    tgt = random_mf1(101, 2, 4)
    alpha = PolyMatrix.identity(2)
    beta = tgt.psi @ alpha @ src.phi
    rows = beta.to_rows()
    rows[0][0] = rows[0][0] + 1
    bad = PolyMatrix.from_rows(rows)
    with pytest.raises(SquareFailureError):
        MfMorphism(src, tgt, alpha, bad)


def test_factorization_file_round_trip():
    rng = random.Random(90)
    for _ in range(20):
        x = random_valid_mf(rng, rng.randint(1, 3))
        assert factorization_from_text(factorization_to_text(x)) == x


def test_factorization_file_comments_and_blank_lines():
    text = """
# a comment
potential = 1   # trailing comment

phi = [[1]]
psi = [[1]]
"""
    assert factorization_from_text(text).size == 1


def test_factorization_file_errors():
    with pytest.raises(MfFileError) as info:
        factorization_from_text("potential = 1\nphi = [[1]]\n")
    assert "psi" in str(info.value)
    with pytest.raises(MfFileError) as info:
        factorization_from_text("potential = 1\nwhat = [[1]]\n")
    assert info.value.line == 2
    with pytest.raises(MfFileError):
        factorization_from_text("potential = 1\npotential = 2\nphi = [[1]]\npsi = [[1]]\n")
    with pytest.raises(MfFileError) as info:
        factorization_from_text("potential = 1\nphi = [[1]\npsi = [[1]]\n")
    assert info.value.line == 2
    with pytest.raises(MfFileError):
        factorization_from_text("potential 1\nphi = [[1]]\npsi = [[1]]\n")


# Byte chunks with every kind of line break str.splitlines knows of (\r\n,
# \x1c, NEL, U+2028), valid multibyte characters and invalid bytes.
_MF_BYTES = st.lists(
    st.sampled_from(
        [b"\n", b"\r", b"\r\n", b"\x1c", b"\xc2\x85", b"\xe2\x80\xa8", b"x = 1",
         b"\xc3\xa9", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xb3\xbf"]
    ),
    max_size=12,
).map(b"".join)


@given(_MF_BYTES)
@example(b"x = 1\r\n\xff")  # line 2, 0xff
@example(b"\xc2\x85\xe2\x82")  # line 2, 0xe2: NEL, then a cut-off sequence
@example(b"\r\xed\xb3\xbf")  # line 2, 0xed: an encoded surrogate
@example(b"\xe2\x80\xa8\r\n\x1c\xc3")  # line 4, 0xc3
def test_invalid_utf8_is_reported_at_its_line(data):
    # The oracle numbers lines as str.splitlines does on the valid prefix.
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        with pytest.raises(MfFileError) as info:
            factorization_from_text(data)
        assert str(info.value) == f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
    else:
        with pytest.raises(MfFileError) as info:
            factorization_from_text(data)
        assert "UTF-8" not in str(info.value)


def test_invalid_factorization_file_propagates_validation_error():
    text = "potential = x\nphi = [[x]]\npsi = [[x]]\n"
    with pytest.raises(ProductMismatchError):
        factorization_from_text(text)


def _two_matrix_first_mismatch(a, b):
    """The first differing entry of two matrices, row-major: the reference
    for validation, which compares with f*I without building it."""
    if a == b:
        return None
    keys = {(i, j) for i, j, _ in a.items()} | {(i, j) for i, j, _ in b.items()}
    dense_a, dense_b = a.to_rows(), b.to_rows()
    for i, j in sorted(keys):
        if dense_a[i][j] != dense_b[i][j]:
            return (i, j)
    return None


def _oracle_verdict(phi, psi, potential):
    expected = PolyMatrix(phi.rows, phi.rows, {(k, k): potential for k in range(phi.rows)})
    for side, product in (("phi*psi", phi @ psi), ("psi*phi", psi @ phi)):
        mismatch = _two_matrix_first_mismatch(product, expected)
        if mismatch is not None:
            error = ProductMismatchError(side, mismatch)
            return (type(error), str(error), error.coords)
    return None


def _verdict(phi, psi, potential):
    try:
        MatrixFactorization(phi, psi, potential)
    except ProductMismatchError as exc:
        return (type(exc), str(exc), exc.coords)
    return None


def test_validation_reports_the_entry_the_two_matrix_comparison_reports():
    values = [parse_polynomial(v) for v in ("0", "1", "-1", "2", "x", "x + 1", "y", "1/2")]
    rng = random.Random(75)

    def factor(n):
        kind = rng.random()
        if kind < 0.15:
            return PolyMatrix.identity(n)
        if kind < 0.25:  # an identity stored entry by entry
            return PolyMatrix(n, n, {(k, k): values[1] for k in range(n)})
        # zeros weighted up so that missing diagonal entries occur often
        return PolyMatrix(n, n, {
            (i, j): rng.choice(values[:1] * 4 + values)
            for i in range(n)
            for j in range(n)
        })

    accepted = rejected = 0
    for _ in range(3000):
        n = rng.randint(1, 3)
        phi, psi = factor(n), factor(n)
        potential = rng.choice(values)
        if rng.random() < 0.3:
            # a potential the product may match on part of the diagonal
            potential = (phi @ psi).to_rows()[0][0]
        expected = _oracle_verdict(phi, psi, potential)
        assert _verdict(phi, psi, potential) == expected, (phi, psi, potential)
        accepted += expected is None
        rejected += expected is not None
    for n in (1, 2, 3):
        eye = PolyMatrix.identity(n)
        for potential in values:
            assert _verdict(eye, eye, potential) == _oracle_verdict(eye, eye, potential)
    assert accepted > 50 and rejected > 50


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _square_oracle(source, target, alpha, beta):
    """The morphism verdict from both squares, each side formed densely."""
    if naive_mat_mul(alpha, source.phi) != naive_mat_mul(target.phi, beta):
        return (SquareFailureError, "phi-square")
    if naive_mat_mul(target.psi, alpha) != naive_mat_mul(beta, source.psi):
        return (SquareFailureError, "psi-square")
    return None


def _morphism_verdict(source, target, alpha, beta):
    try:
        MfMorphism(source, target, alpha, beta)
    except SquareFailureError as exc:
        return (type(exc), exc.which)
    return None


def _perturbed(rng, m):
    rows = m.to_rows()
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[i][j] = rows[i][j] + random_polynomial(rng, max_degree=1, max_terms=2, allow_zero=False)
    return PolyMatrix.from_rows(rows)


def _candidate_morphisms(rng, source, target):
    """(alpha, beta) pairs from source to target: a valid one
    (phi2*h + k*psi1, h*phi1 + psi2*k), each component of it perturbed at one
    entry, and two random pairs."""
    alpha, beta = null_homotopic_pair(rng, source, target)
    return [
        (alpha, beta),
        (alpha, _perturbed(rng, beta)),
        (_perturbed(rng, alpha), beta),
        (random_matrix(rng, target.size, source.size), random_matrix(rng, target.size, source.size)),
        (PolyMatrix(target.size, source.size, {}), random_matrix(rng, target.size, source.size)),
    ]


def test_morphism_validation_agrees_with_the_two_square_oracle():
    # With a nonzero potential the phi-square implies the psi-square, so
    # MfMorphism checks only the first; at potential 0 it checks both.
    rng = random.Random(27)
    unit = [random_mf1(seed, rng.randint(1, 3), 4) for seed in range(8)]
    pool = [random_valid_mf(rng, rng.randint(1, 3), asymmetric=True) for _ in range(16)]
    pool += [x.syzygy() for x in pool]
    samples = [factorization_from_text((SAMPLES / name).read_text())
               for name in ("intro.mf", "scaled.mf")]
    zero = [random_valid_mf(rng, rng.randint(1, 3), zero=True) for _ in range(10)]
    groups = {"unit": unit, "non-unit": pool + samples, "zero": zero}
    outcomes = {name: set() for name in groups}
    for name, objects in groups.items():
        for source, target in itertools.product(objects, repeat=2):
            if source.potential != target.potential:
                continue
            for alpha, beta in _candidate_morphisms(rng, source, target):
                expected = _square_oracle(source, target, alpha, beta)
                assert _morphism_verdict(source, target, alpha, beta) == expected
                outcomes[name].add(expected and expected[1])
    assert outcomes["unit"] == outcomes["non-unit"] == {None, "phi-square"}
    assert outcomes["zero"] == {None, "phi-square", "psi-square"}


def test_psi_phi_is_still_formed_at_potential_zero():
    with pytest.raises(ProductMismatchError) as info:
        MatrixFactorization(
            parse_matrix("[[0, 1], [0, 0]]"), parse_matrix("[[1, 0], [0, 0]]"), ZERO
        )
    assert str(info.value) == "psi*phi != potential*I, first mismatch at entry (0, 1)"


def test_psi_square_is_still_checked_at_potential_zero():
    x = MatrixFactorization(parse_matrix("[[0]]"), parse_matrix("[[1]]"), ZERO)
    with pytest.raises(SquareFailureError) as info:
        MfMorphism(x, x, PolyMatrix.identity(1), PolyMatrix(1, 1, {}))
    assert info.value.which == "psi-square"


def _products(monkeypatch, build, *args):
    """How many matrix products ``build(*args)`` forms."""
    real = PolyMatrix.__matmul__
    count = 0

    def counted(a, b):
        nonlocal count
        count += 1
        return real(a, b)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counted)
    build(*args)
    monkeypatch.undo()
    return count


def test_validation_forms_the_second_product_only_at_potential_zero(monkeypatch):
    # phi*psi proves psi*phi, and the phi-square the psi-square, unless the
    # potential is 0.
    zero = random_valid_mf(random.Random(3), 2, zero=True)
    for x, expected in ((trivial_e(), (1, 2)), (intro_factorization(), (1, 2)), (zero, (2, 4))):
        eye = PolyMatrix.identity(x.size)
        assert (
            _products(monkeypatch, MatrixFactorization, x.phi, x.psi, x.potential),
            _products(monkeypatch, MfMorphism, x, x, eye, eye),
        ) == expected


def test_closed_constructions_form_no_validation_product(monkeypatch):
    # A closed construction on valid values is valid by construction, so it
    # forms no product to re-prove it; a composite forms its two components.
    # The doors for caller-chosen values still validate.
    rng = random.Random(28)
    zero = random_valid_mf(rng, 2, zero=True)
    for x, door in ((trivial_e(), (1, 2)), (intro_factorization(), (1, 2)), (zero, (2, 4))):
        z = MfMorphism(x, x, *null_homotopic_pair(rng, x, x))
        assert [
            _products(monkeypatch, mult_tensor, x, x),
            _products(monkeypatch, yoshino_tensor, x, x),
            _products(monkeypatch, x.syzygy),
            _products(monkeypatch, mult_tensor_morph_pair, z, z),
            _products(monkeypatch, x.identity_morphism),
            _products(monkeypatch, z.compose, z),
        ] == [0, 0, 0, 0, 0, 2]
        assert (
            _products(monkeypatch, factorization_from_text, factorization_to_text(x)),
            _products(monkeypatch, MfMorphism, x, x, z.alpha, z.beta),
        ) == door
