"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a finite mapping from monomials to nonzero exact rational
coefficients, stored as ``int`` while integral and as ``Fraction`` only when
the denominator is not 1 (the public :attr:`Polynomial.terms` always reports
``Fraction`` values).  A monomial is a tuple of ``(variable, exponent)`` pairs
with strictly positive integer exponents; the empty tuple is the constant
monomial.  The zero polynomial has an empty term mapping.

All arithmetic is exact, so equality of polynomials is decidable and reliable;
this is what makes every "diagram commutes" check in the rest of the library a
genuine yes/no question.  Values are immutable and may be freely shared
between threads.

Variable order
--------------
Variables are ordered by name (code-point order of the identifier).  Each
stored monomial lists its variables in that order, and canonical printing uses
descending graded lexicographic order over it, so the printed form of a
polynomial depends only on its value, never on what the process parsed or
built before.

Grammar accepted by :func:`parse_polynomial` (whitespace insignificant)::

    poly   := term (('+'|'-') term)*
    term   := [coeff ('*')?] factor ('*' factor)* | coeff
    factor := var ('^' nat)?
    coeff  := ('-')? nat ('/' nat)?
    var    := letter (letter|digit|'_')*

As a convenience a bare leading '-' (as in ``-x``) is accepted and read as
coefficient -1, so canonical output always re-parses.  A variable's exponent
within a term, summed over its factors, may not exceed ``MAX_EXPONENT``.

A parsed sum is collected into one term mapping and built once, so parsing is
linear in the input.  So is a sum of products p*q in :func:`_sum_of_products`,
the one term loop of ``*`` and of each matrix product entry: one ``cli-files``
benchmark pass makes 964 ``__mul__`` and 12 ``__add__`` calls, not 13,016 and
12,064.  An error names one 0-based position in the text read; matrix
literals are read with the same scanner (see :mod:`mfcat.matrices`).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    ExponentOverflowError,
    MalformedRationalError,
    PolynomialSyntaxError,
)

Monomial = tuple[tuple[str, int], ...]

# Exponents beyond this are rejected by the parser; they would only arise from
# typos and can make later arithmetic needlessly expensive.
MAX_EXPONENT = 10**6

Coefficient = int | Fraction


def _sort_monomial(pairs: Iterable[tuple[str, int]]) -> Monomial:
    # A monomial names each variable once, so sorting the pairs sorts by name.
    return tuple(sorted(pairs))


def _num(c: Coefficient) -> Coefficient:
    """``c`` in stored form: an integral ``Fraction`` becomes its ``int``."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class Polynomial:
    """An immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Coefficient]):
        # The public, normalising constructor; arithmetic uses _make instead.
        normalized: dict[Monomial, Coefficient] = {}
        for monomial, coefficient in terms.items():
            coefficient = Fraction(coefficient)
            if coefficient == 0:
                continue
            monomial = _sort_monomial(
                (var, exp) for var, exp in monomial if exp != 0
            )
            total = normalized.get(monomial, 0) + coefficient
            if total:
                normalized[monomial] = _num(total)
            else:
                del normalized[monomial]
        self._terms = normalized
        self._hash = None
        self._audit()

    def _audit(self) -> None:
        # Internal invariant hook: no zero coefficients, integral values
        # stored as int, positive exponents, monomials sorted by variable name.
        for monomial, coefficient in self._terms.items():
            assert coefficient != 0, "stored zero coefficient"
            assert type(coefficient) is int or (
                type(coefficient) is Fraction and coefficient.denominator != 1
            ), "integral coefficient not stored as int"
            assert all(exp > 0 for _, exp in monomial), "non-positive exponent"
            names = [var for var, _ in monomial]
            assert names == sorted(names), "monomial not in name order"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return ZERO

    @staticmethod
    def one() -> "Polynomial":
        return ONE

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial":
        return Polynomial({(): Fraction(value)})

    @staticmethod
    def variable(name: str, exponent: int = 1) -> "Polynomial":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0:
            return ONE
        return Polynomial({((name, exponent),): 1})

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return {m: Fraction(c) for m, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == _ONE_TERMS

    def is_constant(self) -> bool:
        return all(monomial == () for monomial in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises otherwise)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms.get((), 0))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(exp for _, exp in m) for m in self._terms)

    def max_exponent(self) -> int:
        """The largest exponent of any one variable (0 for a constant)."""
        return max((exp for m in self._terms for _, exp in m), default=0)

    def variables(self) -> set[str]:
        return {var for m in self._terms for var, _ in m}

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not rhs._terms:
            return self
        if not self._terms:
            return rhs
        out = dict(self._terms)
        for monomial, coefficient in rhs._terms.items():
            total = out.get(monomial, 0) + coefficient
            if total:
                out[monomial] = _num(total)
            else:
                del out[monomial]
        return _make(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Polynomial":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        lhs_terms, rhs_terms = self._terms, rhs._terms
        if not lhs_terms or not rhs_terms:
            return ZERO
        if rhs_terms == _ONE_TERMS:
            return self
        if lhs_terms == _ONE_TERMS:
            return rhs
        return _sum_of_products(((self, rhs),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        # Repeated squaring: one product per bit of the exponent, plus one
        # per set bit.
        result, square = ONE, self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    # -- equality and printing -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Equal int and Fraction values hash alike, so this hashes by value.
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        return canonical_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({canonical_string(self)!r})"


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exponents: dict[str, int] = dict(a)
    for var, exp in b:
        exponents[var] = exponents.get(var, 0) + exp
    return _sort_monomial(exponents.items())


def _sum_of_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of ``p * q`` over ``pairs``, summed in one terms dict with each
    coefficient normalised once, and built once (``ZERO`` if it cancels)."""
    out: dict[Monomial, Coefficient] = {}
    for p, q in pairs:
        for mono_a, coeff_a in p._terms.items():
            for mono_b, coeff_b in q._terms.items():
                mono = _mul_monomials(mono_a, mono_b)
                out[mono] = out.get(mono, 0) + coeff_a * coeff_b
    terms = {mono: _num(total) for mono, total in out.items() if total}
    return _make(terms) if terms else ZERO


def _make(terms: dict[Monomial, Coefficient]) -> Polynomial:
    """Wrap ``terms``, already meeting every ``_audit`` invariant, uncopied."""
    p = object.__new__(Polynomial)
    p._terms = terms
    p._hash = None
    p._audit()
    return p


ZERO = _make({})
ONE = _make({(): 1})
_ONE_TERMS = ONE._terms


# ---------------------------------------------------------------------------
# canonical printing


def _grlex_key(monomial: Monomial) -> tuple:
    # Descending graded lexicographic order: compare total degree first, then
    # the exponent vector over the monomial's variables in name order.
    # Keying each exponent by its name puts x^2 before y^2, as x < y.
    degree = sum(exp for _, exp in monomial)
    vector = tuple((var, -exp) for var, exp in monomial)
    return (-degree, vector)


def canonical_string(p: Polynomial) -> str:
    """Deterministic textual form; re-parses to an equal polynomial."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for index, monomial in enumerate(sorted(p._terms, key=_grlex_key)):
        coefficient = p._terms[monomial]
        magnitude = abs(coefficient)
        factors = "*".join(
            f"{var}^{exp}" if exp > 1 else var for var, exp in monomial
        )
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = factors
        else:
            body = f"{magnitude}*{factors}"
        if index == 0:
            parts.append(f"-{body}" if coefficient < 0 else body)
        else:
            parts.append(f" - {body}" if coefficient < 0 else f" + {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take_symbol(self, symbols: str) -> str | None:
        ch = self.peek()
        if ch and ch in symbols:
            self.pos += 1
            return ch
        return None

    def take_nat(self) -> int | None:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            return None
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # beyond the interpreter's int-string digit limit
            raise PolynomialSyntaxError(
                f"numeral of {self.pos - start} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits",
                start,
            ) from None

    def take_name(self) -> str | None:
        self.skip_space()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return self.text[start : self.pos]
        return None

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)


def _parse_rational(tok: _Tokenizer) -> Fraction:
    numerator = tok.take_nat()
    if not tok.take_symbol("/"):
        return Fraction(numerator)
    denom_pos = tok.pos
    denominator = tok.take_nat()
    if denominator is None:
        raise MalformedRationalError("expected denominator after '/'", denom_pos)
    if denominator == 0:
        raise MalformedRationalError("zero denominator", denom_pos)
    return Fraction(numerator, denominator)


def _parse_term(tok: _Tokenizer) -> tuple[Monomial, Fraction]:
    sign = -1 if tok.take_symbol("-") else 1  # a bare '-x' reads as -1*x
    coefficient = Fraction(sign)
    if tok.peek().isdecimal():
        coefficient = sign * _parse_rational(tok)
        if not tok.take_symbol("*") and not tok.peek().isalpha():
            return (), coefficient
    exponents: dict[str, int] = {}
    while True:
        tok.skip_space()
        position, exponent = tok.pos, 1
        name = tok.take_name()
        if name is None:
            message = "expected a variable" if exponents else "expected a term"
            raise PolynomialSyntaxError(message, position)
        if tok.take_symbol("^"):
            position = tok.pos
            exponent = tok.take_nat()
            if exponent is None:
                raise PolynomialSyntaxError("expected an exponent after '^'", position)
        # The bound applies to the exponent the term ends up with: x^a*x^b is
        # x^(a+b), and its canonical form must parse again.
        exponent += exponents.get(name, 0)
        if exponent > MAX_EXPONENT:
            raise ExponentOverflowError(
                f"exponent {exponent} exceeds limit {MAX_EXPONENT}", position
            )
        exponents[name] = exponent
        if not tok.take_symbol("*"):
            monomial = _sort_monomial((v, e) for v, e in exponents.items() if e)
            return monomial, coefficient


def _parse_sum(tok: _Tokenizer) -> Polynomial:
    """Read ``term (('+'|'-') term)*``, stopping before any other symbol."""
    terms: dict[Monomial, Fraction] = {}
    sign: str | None = "+"
    while sign:
        monomial, coefficient = _parse_term(tok)
        if sign == "-":
            coefficient = -coefficient
        terms[monomial] = terms.get(monomial, 0) + coefficient
        sign = tok.take_symbol("+-")
    return Polynomial(terms)


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``text`` into a :class:`Polynomial`.

    Raises :class:`PolynomialSyntaxError`, :class:`MalformedRationalError` or
    :class:`ExponentOverflowError` with the offending character position.
    """
    tok = _Tokenizer(text)
    if tok.at_end():
        raise PolynomialSyntaxError("empty polynomial", tok.pos)
    result = _parse_sum(tok)
    if not tok.at_end():
        raise PolynomialSyntaxError(
            f"unexpected character {tok.peek()!r}", tok.pos
        )
    return result


# ---------------------------------------------------------------------------
# random generation (used by samplers and property tests)


def random_polynomial(
    rng,
    variables: tuple[str, ...] = ("x", "y", "z"),
    max_degree: int = 2,
    max_terms: int = 3,
    coefficient_bound: int = 3,
    allow_zero: bool = True,
) -> Polynomial:
    """Draw a small random polynomial from ``rng`` (a ``random.Random``)."""
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    terms: dict[Monomial, int] = {}
    for _ in range(n_terms):
        coefficient = 0
        while coefficient == 0:
            coefficient = rng.randint(-coefficient_bound, coefficient_bound)
        degree = rng.randint(0, max_degree)
        exponents: dict[str, int] = {}
        for _ in range(degree):
            var = rng.choice(variables)
            exponents[var] = exponents.get(var, 0) + 1
        monomial = _sort_monomial(exponents.items())
        terms[monomial] = terms.get(monomial, 0) + coefficient
    total = Polynomial(terms)
    if not allow_zero and total.is_zero():
        return Polynomial.one()
    return total
