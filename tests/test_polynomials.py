import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mfcat.errors import (
    ExponentOverflowError,
    MalformedRationalError,
    ParseError,
    PolynomialSyntaxError,
    SizeGuardError,
)
from mfcat.polynomials import (
    MAX_EXPONENT,
    ONE,
    ZERO,
    Polynomial,
    _make,
    _packed_product,
    canonical_string,
    parse_polynomial,
    random_polynomial,
)

from mfcat.matrices import PolyMatrix

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


def test_printing_refuses_a_coefficient_beyond_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    x = Polynomial.variable("x")
    assert str(x + (10**limit - 1)) == "x + " + "9" * limit
    for p in (x + 10**limit, Fraction(1, 10**limit) * x, Polynomial.constant(-(10**limit))):
        with pytest.raises(SizeGuardError) as info:
            str(p)
        assert str(info.value) == f"a coefficient exceeds the limit of {limit} digits for printing"


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


@given(st.lists(_TERM, min_size=1, max_size=6))
def test_constructor_reads_a_term_as_the_parser_does(terms):
    # Raw monomials repeat variables, carry zero exponents and are unsorted.
    raw = {}
    for coefficient, factors in terms:
        raw[tuple(factors)] = raw.get(tuple(factors), 0) + (1 if coefficient is None else coefficient)
    p = Polynomial(raw)
    assert p == parse_polynomial(" + ".join(map(_render_term, terms)))
    assert parse_polynomial(str(p)) == p


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Polynomial.variable("2x"), ValueError),
        (lambda: Polynomial.variable(" x"), ValueError),
        (lambda: Polynomial.variable("_x"), ValueError),
        (lambda: Polynomial.variable(""), ValueError),
        (lambda: Polynomial.variable("x", -1), ValueError),
        (lambda: Polynomial({(("x", 1.5),): 1}), ValueError),
        (lambda: Polynomial({(("x", 1),): 0.1}), TypeError),
        (lambda: Polynomial({(): "1/3"}), TypeError),
        (lambda: Polynomial.constant(0.1), TypeError),
        (lambda: PolyMatrix.from_rows([[0.1]]), TypeError),
    ],
    ids=["2x", "space-x", "underscore-x", "empty-name", "exponent-1", "exponent-1.5",
         "float-coefficient", "str-coefficient", "float-constant", "float-entry"],
)
def test_constructor_rejects_what_the_parser_would_not_read(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "name", ["x", "x\u00b2", "\u00e9", "2x", " x", "_x", "", "x y", "x-"],
    ids=ascii,
)
def test_constructor_takes_a_name_exactly_when_the_parser_reads_it(name):
    try:
        read = parse_polynomial(name).terms == {((name, 1),): 1}
    except ParseError:
        read = False
    try:
        Polynomial.variable(name)
    except ValueError as exc:
        assert str(exc) == f"not a variable name: {name!r}"
        assert not read
    else:
        assert read


def test_constructor_rejects_a_negative_exponent_under_python_O():
    # -O strips asserts, so the rejection must not rest on _audit.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from mfcat.polynomials import Polynomial\n"
        "try:\n    Polynomial({(('x', -1),): 1})\n"
        "except ValueError:\n    print(__debug__, 'rejected')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.stdout, result.stderr) == ("False rejected\n", "")


def test_audit_rejects_a_variable_named_twice():
    with pytest.raises(AssertionError, match="name order"):
        _make({(("x", 1), ("x", 2)): 1})


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


_MALFORMED = [
    ("x + @", PolynomialSyntaxError, "expected a term", 4),
    ("x y", PolynomialSyntaxError, "unexpected character 'y'", 2),
    ("x*", PolynomialSyntaxError, "expected a variable", 2),
    ("2*+x", PolynomialSyntaxError, "expected a term", 2),
    ("- -x", PolynomialSyntaxError, "expected a term", 2),
    ("x^", PolynomialSyntaxError, "expected an exponent after '^'", 2),
    ("x^\u00b2", PolynomialSyntaxError, "expected an exponent after '^'", 2),
    ("\u00b2", PolynomialSyntaxError, "expected a term", 0),
    ("\u00bd", PolynomialSyntaxError, "expected a term", 0),
    ("_x", PolynomialSyntaxError, "expected a term", 0),
    ("3/0", MalformedRationalError, "zero denominator", 2),
    ("3/x", MalformedRationalError, "expected denominator after '/'", 2),
    ("x^9999999", ExponentOverflowError, "exponent 9999999 exceeds limit 1000000", 2),
    ("x^600000*x^600000", ExponentOverflowError, "exponent 1200000 exceeds limit", 11),
    ("x^1000000*x", ExponentOverflowError, "exponent 1000001 exceeds limit", 10),
    ("x^999999*y*x^2", ExponentOverflowError, "exponent 1000001 exceeds limit", 13),
    ("x^1000000*y*x", ExponentOverflowError, "exponent 1000001 exceeds limit", 12),
    # an error sits just after its '^' or '/', not on the token after it
    ("x^ y", PolynomialSyntaxError, "expected an exponent after '^'", 2),
    ("3/ 0", MalformedRationalError, "zero denominator", 2),
    ("x^ 9999999", ExponentOverflowError, "exponent 9999999 exceeds limit", 2),
    # an overflow is reported before any later error in its term
    ("x^600000*x^600000*", ExponentOverflowError, "exponent 1200000 exceeds limit", 11),
    ("x^9999999*y^", ExponentOverflowError, "exponent 9999999 exceeds limit", 2),
    ("x^600000 * x^600000*y^" + _LONG, ExponentOverflowError, "exponent 1200000 exceeds", 13),
    ("x^2000000*y^2000000", ExponentOverflowError, "exponent 2000000 exceeds limit", 2),
    (_LONG, PolynomialSyntaxError, "numeral of 5000 digits exceeds", 0),
    ("x + " + _LONG, PolynomialSyntaxError, "numeral of 5000 digits exceeds", 4),
    ("x^" + _LONG, PolynomialSyntaxError, "numeral of 5000 digits exceeds", 2),
    ("1/" + _LONG, PolynomialSyntaxError, "numeral of 5000 digits exceeds", 2),
]


@pytest.mark.parametrize(
    "text, error, message, position",
    _MALFORMED,
    ids=[f"{text[:24]}-{error.__name__}-{position}" for text, error, _, position in _MALFORMED],
)
def test_malformed_polynomials_carry_one_position(text, error, message, position):
    with pytest.raises(error) as info:
        parse_polynomial(text)
    assert str(info.value).startswith(message)
    assert info.value.position == position
    assert str(info.value).count("(at position") == 1


@pytest.mark.parametrize(
    "text, expected",
    [
        # Space is whatever str.isspace accepts.
        ("x\u00a0+\u2003y", "x + y"),
        ("x\u2028+ y", "x + y"),
        # Numerals are str.isdecimal digits of any script.
        ("\u0663*x", "3*x"),
        ("\uff13", "3"),
        # A name starts with a str.isalpha letter, then takes str.isalnum or '_'.
        ("x\u00b2", "x\u00b2"),
        ("\u00e9^2", "\u00e9^2"),
    ],
    ids=lambda value: value.encode("unicode_escape").decode(),
)
def test_scanner_character_classes(text, expected):
    assert canonical_string(parse_polynomial(text)) == expected


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
    for one in (Polynomial.constant(True), Polynomial({(): True}), ZERO + True):
        assert one == 1 and type(one._terms[()]) is int
    with pytest.raises(ValueError):
        parse_polynomial("x + 1").constant_value()


def test_total_degree():
    p = parse_polynomial("x^2*y + z - 4")
    assert p.total_degree() == 3


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


@pytest.mark.parametrize("value", [0, 1, -2, Fraction(1, 2), True])
def test_constant_hashes_as_the_number_it_equals(value):
    # == and hash agree, so a constant polynomial is found among numbers.
    p = Polynomial.constant(value)
    assert p == value and hash(p) == hash(value)
    assert p in {value} and value in {p}


def test_parsed_and_computed_values_agree():
    parsed = parse_polynomial("3/2*x^2 - 4*x*y + 2")
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    built = Fraction(3, 2) * x * x - Polynomial.constant(4) * x * y + 2
    halves = (Fraction(3, 4) * x * x - 2 * x * y + 1) * 2
    for value in (built, halves):
        _check_stored_form(value)
        assert value == parsed and hash(value) == hash(parsed)
        assert canonical_string(value) == "3/2*x^2 - 4*x*y + 2"


# -- the packed product kernel behind * and every matrix product entry -------


def _naive_sum_of_products(pairs) -> Polynomial:
    total = Polynomial.zero()
    for p, q in pairs:
        total = total + naive_mul(p, q)
    return total


def _dot(pairs) -> Polynomial:
    """The sum of p*q over ``pairs``: a row of the p's times a column of the
    q's, the one entry of a 1xn by nx1 product."""
    entries = _packed_product(
        [(0, k, p) for k, (p, _) in enumerate(pairs)],
        [(k, 0, q) for k, (_, q) in enumerate(pairs)],
    )
    assert set(entries) <= {(0, 0)}
    return entries.get((0, 0), ZERO)


def test_sum_of_products_of_no_pairs_is_zero():
    assert _packed_product([], []) == {}
    assert _packed_product(iter(()), iter(())) == {}
    assert _dot([]) is ZERO


def test_sum_of_products_drops_terms_that_cancel_across_pairs():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    # (x + y)x + (x - y)(-x) = 2xy: x^2 cancels across the two pairs
    partial = _dot([(x + y, x), (x - y, -x)])
    _check_stored_form(partial)
    assert partial == 2 * x * y == _naive_sum_of_products([(x + y, x), (x - y, -x)])
    # (x + y)(x - y) + y*y - x*x cancels everywhere: the entry is not built
    assert _dot([(x + y, x - y), (y, y), (-x, x)]) is ZERO


def test_sum_of_products_stores_integral_fraction_sums_as_int():
    x = Polynomial.variable("x")
    half, third = Polynomial.constant(Fraction(1, 2)), Polynomial.constant(Fraction(1, 3))
    # 1/2 * 1/2x + 3/4x * 1 = x, and 1/3 * 1/2 + 5/6 * 1 = 1
    linear = _dot([(half, half * x), (Fraction(3, 4) * x, ONE)])
    constant = _dot([(third, half), (Polynomial.constant(Fraction(5, 6)), ONE)])
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
    result = _dot(pairs)
    _check_stored_form(result)
    assert result == _naive_sum_of_products(pairs)


def test_packed_digits_do_not_carry_past_the_parser_bound():
    # arithmetic reaches exponents above MAX_EXPONENT; the largest exponent
    # of an operand sets the base, so its square still fits in one digit
    x, y = Polynomial.variable("x", MAX_EXPONENT), Polynomial.variable("y")
    square = x * x
    assert square._terms == {(("x", 2 * MAX_EXPONENT),): 1}
    fourth = square * square
    assert fourth._terms == {(("x", 4 * MAX_EXPONENT),): 1}
    mixed = (fourth + x * y - 1) * (square * y - fourth + 1)
    mixed._audit()  # its canonical form is past the parser bound, so no re-parse
    assert mixed == naive_mul(fourth + x * y - 1, square * y - fourth + 1)


# Code-point order of these names is X < x < x10 < x2 < x_1 < é, which is
# neither alphabetical nor numeric: products must list them in that order.
_ODD_NAMES = ("X", "x", "x_1", "x10", "x2", "é")
_odd_monomials = st.dictionaries(
    st.sampled_from(_ODD_NAMES), st.integers(1, 4), max_size=4
).map(lambda exps: tuple(sorted(exps.items())))
_odd_terms = st.dictionaries(_odd_monomials, _rationals, max_size=4)


@given(_odd_terms, _odd_terms)
def test_products_over_names_out_of_alphabetical_order_match_naive(a, b):
    p, q = Polynomial(a), Polynomial(b)
    product = p * q
    _check_stored_form(product)  # re-parses its canonical form, too
    assert product == naive_mul(p, q) and product.terms == _oracle_mul(p.terms, q.terms)


def test_products_with_constants_keep_the_stored_form():
    x, y = parse_polynomial("x_1 - 1/2*é"), parse_polynomial("X^3 + 2")
    third, minus_three = Polynomial.constant(Fraction(1, 3)), Polynomial.constant(-3)
    assert third * minus_three == Polynomial.constant(-1)
    assert type((third * minus_three)._terms[()]) is int
    for p, q in ((third, x), (x, minus_three), (x * third, y), (minus_three, ONE)):
        product = p * q
        _check_stored_form(product)
        assert product == naive_mul(p, q) == q * p
    assert x * ONE is x and ONE * y is y and (x * ZERO) is ZERO
