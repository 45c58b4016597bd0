import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mfcat.errors import (
    ExponentOverflowError,
    MalformedRationalError,
    PolynomialSyntaxError,
)
from mfcat.polynomials import (
    ONE,
    ZERO,
    Polynomial,
    _sum_of_products,
    canonical_string,
    parse_polynomial,
    random_polynomial,
)

from support import naive_mul


def test_parse_sum_of_squares():
    p = parse_polynomial("x^2 + y^2")
    assert p.terms == {
        (("x", 2),): Fraction(1),
        (("y", 2),): Fraction(1),
    }


def test_parse_zero_literal():
    assert parse_polynomial("0").is_zero()


def test_parse_cancellation():
    assert parse_polynomial("2*x - x - x").is_zero()


def test_canonical_examples():
    assert canonical_string(parse_polynomial("y^2 + x^2")) == "x^2 + y^2"
    assert canonical_string(Polynomial.zero()) == "0"
    assert canonical_string(parse_polynomial("3/2*x*y")) == "3/2*x*y"


def test_canonical_grlex_order():
    p = parse_polynomial("1 + x + y^2 + x*y + x^2")
    assert canonical_string(p) == "x^2 + x*y + y^2 + x + 1"


def test_canonical_order_ignores_parse_history():
    # qb is met first, yet the canonical form orders variables by name.
    parse_polynomial("qb")
    p = parse_polynomial("qb*qa + qa^2 + qb^2")
    assert canonical_string(p) == "qa^2 + qa*qb + qb^2"


def test_canonical_negative_leading_term():
    p = parse_polynomial("-x^2 - 5/3")
    assert canonical_string(p) == "-x^2 - 5/3"
    assert parse_polynomial(canonical_string(p)) == p


def test_parse_implicit_coefficient_star():
    assert parse_polynomial("2x") == parse_polynomial("2*x")


def test_parse_repeated_variable_multiplies():
    assert parse_polynomial("x*x") == parse_polynomial("x^2")


def test_parse_exponent_zero_folds_to_constant():
    assert parse_polynomial("x^0") == Polynomial.one()


def test_syntax_error_carries_position():
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial("x + @")
    assert info.value.position == 4


def test_unexpected_trailing_token():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x y")


def test_malformed_rational():
    with pytest.raises(MalformedRationalError):
        parse_polynomial("3/0")
    with pytest.raises(MalformedRationalError):
        parse_polynomial("3/")


def test_exponent_overflow():
    with pytest.raises(ExponentOverflowError):
        parse_polynomial("x^9999999")


def test_empty_input_rejected():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("   ")


# Terms as (coefficient or None, [(variable, exponent)]); exponents include 0
# and variables repeat, so terms collide, cancel and fold to constants.
_TERM = st.tuples(
    st.sampled_from([None, 0, 1, 2, 7, Fraction(3, 2), Fraction(1, 3)]),
    st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 3)), max_size=3),
)
# Binary operators between terms; " - -" and " + -" negate the next term.
_OPERATOR = st.sampled_from([" + ", " - ", " - -", " + -", "+", "-"])


def _render_term(term):
    coefficient, factors = term
    parts = [] if coefficient is None else [str(coefficient)]
    parts += [var if exp == 1 else f"{var}^{exp}" for var, exp in factors]
    return "*".join(parts) or "1"


def _term_value(term):
    coefficient, factors = term
    value = Polynomial.constant(1 if coefficient is None else coefficient)
    for var, exp in factors:
        value = value * Polynomial.variable(var, exp)
    return value


@given(st.booleans(), _TERM, st.lists(st.tuples(_OPERATOR, _TERM), max_size=8))
def test_single_build_parse_matches_term_by_term_fold(negate_first, first, rest):
    # The oracle is the fold the parser used to run: one Polynomial per term,
    # accumulated with result + term or result - term.
    text = ("-" if negate_first else "") + _render_term(first)
    expected = -_term_value(first) if negate_first else _term_value(first)
    for operator, term in rest:
        text += operator + _render_term(term)
        if operator.count("-") % 2:
            expected = expected - _term_value(term)
        else:
            expected = expected + _term_value(term)
    parsed = parse_polynomial(text)
    assert parsed == expected and hash(parsed) == hash(expected)
    assert canonical_string(parsed) == canonical_string(expected)


def test_exponent_bound_applies_to_a_variable_within_a_term():
    # x^600000*x^600000 used to parse to x^1200000, which does not re-parse.
    assert parse_polynomial("x^1000000*y^1000000 + x^1000000") == (
        Polynomial.variable("x", 10**6) * (Polynomial.variable("y", 10**6) + 1)
    )
    assert parse_polynomial("x^0*x^1000000") == Polynomial.variable("x", 10**6)
    for text in ("x^600000*x^600000", "x^1000000*x", "y*x^999999*x*x"):
        with pytest.raises(ExponentOverflowError):
            parse_polynomial(text)


_LONG = "9" * 5000


@pytest.mark.parametrize(
    "text, error, position",
    [
        ("x + @", PolynomialSyntaxError, 4),
        ("x y", PolynomialSyntaxError, 2),
        ("x*", PolynomialSyntaxError, 2),
        ("2*+x", PolynomialSyntaxError, 2),
        ("- -x", PolynomialSyntaxError, 2),
        ("x^", PolynomialSyntaxError, 2),
        ("x^\u00b2", PolynomialSyntaxError, 2),
        ("\u00b2", PolynomialSyntaxError, 0),
        ("3/0", MalformedRationalError, 2),
        ("3/x", MalformedRationalError, 2),
        ("x^9999999", ExponentOverflowError, 2),
        ("x^600000*x^600000", ExponentOverflowError, 11),
        ("x^1000000*x", ExponentOverflowError, 10),
        (_LONG, PolynomialSyntaxError, 0),
        ("x + " + _LONG, PolynomialSyntaxError, 4),
        ("x^" + _LONG, PolynomialSyntaxError, 2),
        ("1/" + _LONG, PolynomialSyntaxError, 2),
    ],
    ids=lambda value: value[:24] if isinstance(value, str) else None,
)
def test_malformed_polynomials_carry_one_position(text, error, position):
    with pytest.raises(error) as info:
        parse_polynomial(text)
    assert info.value.position == position
    assert str(info.value).count("(at position") == 1


def test_addition_identity_and_cancellation():
    p = parse_polynomial("x^2 + y^2")
    assert p + Polynomial.zero() == p
    assert parse_polynomial("x + y") + parse_polynomial("x - y") == parse_polynomial("2*x")


def test_multiplication_examples():
    assert parse_polynomial("x + y") * parse_polynomial("x - y") == parse_polynomial("x^2 - y^2")
    p = parse_polynomial("x^2 + 3*y")
    assert p * Polynomial.one() == p
    # single-term product, checked against term-by-term expansion
    lhs = parse_polynomial("x^2") * parse_polynomial("y^2")
    assert lhs == naive_mul(parse_polynomial("x^2"), parse_polynomial("y^2"))
    assert lhs == parse_polynomial("x^2*y^2")


def _random_poly_strategy():
    coeffs = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    )
    exps = st.dictionaries(st.sampled_from("xyz"), st.integers(1, 3), max_size=3)
    term = st.tuples(coeffs, exps)
    return st.lists(term, max_size=4).map(
        lambda terms: sum(
            (
                Polynomial({tuple(sorted(exps.items())): coeff})
                for coeff, exps in terms
                if coeff != 0
            ),
            Polynomial.zero(),
        )
    )


@given(_random_poly_strategy())
def test_parse_canonical_round_trip(p):
    assert parse_polynomial(canonical_string(p)) == p


@given(_random_poly_strategy(), _random_poly_strategy())
def test_mul_matches_naive_expansion(p, q):
    assert p * q == naive_mul(p, q)


def test_ring_laws_on_random_triples():
    # associativity, commutativity and distributivity, exact, >= 1000 triples
    rng = random.Random(20240)
    for _ in range(1000):
        p = random_polynomial(rng, max_degree=4, max_terms=3)
        q = random_polynomial(rng, max_degree=4, max_terms=3)
        r = random_polynomial(rng, max_degree=4, max_terms=3)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_no_zero_coefficients_after_operations():
    rng = random.Random(99)
    for _ in range(200):
        p = random_polynomial(rng, max_degree=3, max_terms=3)
        q = random_polynomial(rng, max_degree=3, max_terms=3)
        for result in (p + q, p - q, p * q, -p, p - p):
            assert all(c != 0 for c in result.terms.values())
            result._audit()


def test_constant_helpers():
    assert Polynomial.constant(0).is_zero()
    assert Polynomial.constant(Fraction(7, 2)).constant_value() == Fraction(7, 2)
    assert Polynomial.variable("x", 0) == Polynomial.one()
    with pytest.raises(ValueError):
        parse_polynomial("x + 1").constant_value()


def test_total_degree_and_variables():
    p = parse_polynomial("x^2*y + z - 4")
    assert p.total_degree() == 3
    assert p.variables() == {"x", "y", "z"}


def test_pow_equals_repeated_product():
    rng = random.Random(4711)
    for _ in range(20):
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 4))
        p = random_polynomial(rng, max_degree=2, max_terms=3) * scale
        product = Polynomial.one()
        for n in range(10):
            assert p ** n == product
            product = product * p
    with pytest.raises(ValueError):
        Polynomial.variable("x") ** -1


# -- integral coefficients are stored as int, rationals as Fraction ----------

_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_monomials = st.dictionaries(
    st.sampled_from("xyz"), st.integers(1, 3), max_size=3
).map(lambda exps: tuple(sorted(exps.items())))
_raw_terms = st.dictionaries(_monomials, _rationals, max_size=4).map(
    lambda terms: {m: c for m, c in terms.items() if c}
)


def _oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for monomial, coefficient in b.items():
        out[monomial] = out.get(monomial, Fraction(0)) + coefficient
    return {m: c for m, c in out.items() if c}


def _oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            exps = dict(mono_a)
            for var, exp in mono_b:
                exps[var] = exps.get(var, 0) + exp
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + coeff_a * coeff_b
    return {m: c for m, c in out.items() if c}


def _check_stored_form(p: Polynomial) -> None:
    p._audit()
    assert all(type(c) is Fraction for c in p.terms.values())
    reparsed = parse_polynomial(canonical_string(p))
    assert reparsed == p and hash(reparsed) == hash(p)


@given(_raw_terms, _raw_terms)
def test_mixed_coefficients_match_fraction_oracle(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert p.terms == a
    negated = {m: -c for m, c in b.items()}
    cases = [
        (p + q, _oracle_add(a, b)),
        (p - q, _oracle_add(a, negated)),
        (p * q, _oracle_mul(a, b)),
    ]
    power = {(): Fraction(1)}
    for n in range(4):
        cases.append((p ** n, power))
        power = _oracle_mul(power, a)
    for result, expected in cases:
        _check_stored_form(result)
        assert result.terms == expected
    assert p * q == naive_mul(p, q)


def test_integral_product_of_rationals_is_one():
    product = Polynomial.constant(Fraction(2)) * Polynomial.constant(Fraction(1, 2))
    _check_stored_form(product)
    assert product.is_one()
    assert product == ONE and hash(product) == hash(ONE)
    assert product.constant_value() == 1
    assert type(product.constant_value()) is Fraction


def test_parsed_and_computed_values_agree():
    parsed = parse_polynomial("3/2*x^2 - 4*x*y + 2")
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    built = Fraction(3, 2) * x * x - Polynomial.constant(4) * x * y + 2
    halves = (Fraction(3, 4) * x ** 2 - 2 * x * y + 1) * 2
    for value in (built, halves):
        _check_stored_form(value)
        assert value == parsed and hash(value) == hash(parsed)
        assert canonical_string(value) == "3/2*x^2 - 4*x*y + 2"


# -- the sum-of-products kernel behind * and every matrix product entry -------


def _naive_sum_of_products(pairs) -> Polynomial:
    total = Polynomial.zero()
    for p, q in pairs:
        total = total + naive_mul(p, q)
    return total


def test_sum_of_products_of_no_pairs_is_zero():
    assert _sum_of_products([]) is ZERO
    assert _sum_of_products(iter(())) is ZERO


def test_sum_of_products_drops_terms_that_cancel_across_pairs():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    # (x + y)x + (x - y)(-x) = 2xy: x^2 cancels across the two pairs
    partial = _sum_of_products([(x + y, x), (x - y, -x)])
    _check_stored_form(partial)
    assert partial == 2 * x * y == _naive_sum_of_products([(x + y, x), (x - y, -x)])
    # (x + y)(x - y) + y*y - x*x cancels everywhere
    assert _sum_of_products([(x + y, x - y), (y, y), (-x, x)]) is ZERO


def test_sum_of_products_stores_integral_fraction_sums_as_int():
    x = Polynomial.variable("x")
    half, third = Polynomial.constant(Fraction(1, 2)), Polynomial.constant(Fraction(1, 3))
    # 1/2 * 1/2x + 3/4x * 1 = x, and 1/3 * 1/2 + 5/6 * 1 = 1
    linear = _sum_of_products([(half, half * x), (Fraction(3, 4) * x, ONE)])
    constant = _sum_of_products([(third, half), (Polynomial.constant(Fraction(5, 6)), ONE)])
    for result, expected in ((linear, x), (constant, ONE)):
        _check_stored_form(result)
        assert result == expected and hash(result) == hash(expected)
        assert all(type(c) is int for c in result._terms.values())


@given(st.lists(st.tuples(_raw_terms, _raw_terms), max_size=4), st.data())
def test_sum_of_products_matches_a_sum_of_naive_products(raw_pairs, data):
    pairs = [(Polynomial(a), Polynomial(b)) for a, b in raw_pairs]
    # p*q meets -p*q for each drawn pair, so whole products cancel too
    negated = data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    pairs += [(-p, q) for p, q in negated]
    result = _sum_of_products(pairs)
    _check_stored_form(result)
    assert result == _naive_sum_of_products(pairs)
