"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a finite mapping from monomials to nonzero exact rational
coefficients, stored as ``int`` while integral and as ``Fraction`` only when
the denominator is not 1 (the public :attr:`Polynomial.terms` always reports
``Fraction`` values).  A monomial is a tuple of ``(variable, exponent)`` pairs
with strictly positive integer exponents; the empty tuple is the constant
monomial.  The zero polynomial has an empty term mapping.  The public
constructor reads a term as the grammar does (a variable's exponents add up,
zero exponents vanish) and a number as arithmetic does (an ``int`` or a
``Fraction``, never a float or a string).  It raises ``ValueError`` for a name
the parser would not read as that one variable or an exponent that is not a
non-negative int, and ``TypeError`` for a coefficient that is not an exact
rational.

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

The parser reads a value as one list of tokens, made by one ``findall`` call,
and walks it by index.  A term sums each variable's exponents as it reads
its factors, so an overflow is raised at the factor that crosses the limit,
and goes through the term rule once; a sum is collected into one term
mapping, its coefficients ``int`` until a ``/`` is read, and built once by
:func:`_make`, so parsing is linear in the input.  An error names one
0-based position in the text read, found only then, by scanning the text
again; matrix literals are read the same way (see :mod:`mfcat.matrices`).
``*`` and every matrix product entry share one kernel,
:func:`_packed_product`: within one call each monomial is packed into an
int, so a monomial product is one int addition; stored monomials stay
tuples (the README design note gives the measured traffic).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping

from .errors import (
    ExponentOverflowError,
    MalformedRationalError,
    PolynomialSyntaxError,
    SizeGuardError,
)

Monomial = tuple[tuple[str, int], ...]

# Exponents beyond this are rejected by the parser; they would only arise from
# typos and can make later arithmetic needlessly expensive.
MAX_EXPONENT = 10**6

Coefficient = int | Fraction


def _monomial(pairs: Iterable[tuple[str, int]]) -> Monomial:
    """The term rule: a variable's exponents add up, zeros vanish, names sort."""
    exponents: dict[str, int] = {}
    for var, exp in pairs:
        exponents[var] = exponents.get(var, 0) + exp
    return tuple(sorted((var, exp) for var, exp in exponents.items() if exp))


def _num(c: Coefficient) -> Coefficient:
    """``c`` in stored form: an integral ``Fraction`` becomes its ``int``."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class Polynomial:
    """An immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient]):
        # The public, checking constructor; arithmetic uses _make instead.
        normalized: dict[Monomial, Coefficient] = {}
        for monomial, coefficient in terms.items():
            for var, exp in monomial:
                # the name rule: one token of the parser's, starting with a letter
                if not (isinstance(var, str) and var[:1].isalpha() and _TOKEN.fullmatch(var)):
                    raise ValueError(f"not a variable name: {var!r}")
                if not isinstance(exp, int) or exp < 0:
                    raise ValueError(f"exponent of {var} is not a non-negative int: {exp!r}")
            monomial = _monomial(monomial)
            total = normalized.get(monomial, 0) + Polynomial.constant(coefficient)._terms.get((), 0)
            if total:
                normalized[monomial] = _num(total)
            else:
                normalized.pop(monomial, None)
        self._terms = normalized
        self._audit()

    def _audit(self) -> None:
        # Internal invariant hook: no zero coefficients, integral values
        # stored as int, positive exponents, each variable once, in name order.
        for monomial, coefficient in self._terms.items():
            assert coefficient != 0, "stored zero coefficient"
            assert type(coefficient) is int or (
                type(coefficient) is Fraction and coefficient.denominator != 1
            ), "integral coefficient not stored as int"
            assert all(exp > 0 for _, exp in monomial), "non-positive exponent"
            names = [var for var, _ in monomial]
            assert names == sorted(set(names)), "monomial not in name order"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return ZERO

    @staticmethod
    def one() -> "Polynomial":
        return ONE

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial":
        p = None if isinstance(value, Polynomial) else _coerce(value)
        if p is None:
            raise TypeError(f"not an int or a Fraction: {value!r}")
        return p

    @staticmethod
    def variable(name: str, exponent: int = 1) -> "Polynomial":
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

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: object) -> "Polynomial":
        rhs = _coerce(other)
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
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Polynomial":
        lhs = _coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: object) -> "Polynomial":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        lhs_terms, rhs_terms = self._terms, rhs._terms
        if not lhs_terms or not rhs_terms:
            return ZERO
        if rhs_terms == _ONE_TERMS:
            return self
        if lhs_terms == _ONE_TERMS:
            return rhs
        return _packed_product(((0, 0, self),), ((0, 0, rhs),))[0, 0]

    __rmul__ = __mul__

    # -- equality and printing -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # By value, as == compares: a constant as the number it equals (equal
        # int and Fraction values hash alike), any other value by its terms.
        terms = self._terms
        return hash(terms.get((), 0) if self.is_constant() else frozenset(terms.items()))

    def __str__(self) -> str:
        return canonical_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({canonical_string(self)!r})"


def _coerce(value: object) -> Polynomial | None:
    """The number rule: a ``Polynomial`` as it is, an ``int`` or a ``Fraction``
    as a constant (a ``bool`` as the int it equals), anything else ``None``."""
    if isinstance(value, Polynomial):
        return value
    if not isinstance(value, (int, Fraction)):
        return None
    value = _num(value) if isinstance(value, Fraction) else int(value)
    return _make({(): value}) if value else ZERO


def _packed_product(
    left: Iterable[tuple[int, int, Polynomial]], right: Iterable[tuple[int, int, Polynomial]]
) -> dict[tuple[int, int], Polynomial]:
    """The nonzero entries of the product of two sparse matrices, each given
    by its nonzero entries ``(row, col, value)``: entry (i, j) sums ``p * q``
    over left entries (i, k, p) and right entries (k, j, q), in the order
    that pairs of entries first reach it.

    Each distinct monomial of the operands is packed once into an int, one
    digit per variable in name order, in base 2e + 1 for the largest exponent
    e: a product's exponents are at most 2e, so no digit carries and a
    monomial product is one int addition.  Each entry is summed in one
    int-keyed dict and each nonzero entry is built once.  A result monomial
    that is an operand's is that tuple; any other is decoded once per call,
    from ``(variable, exponent)`` pairs shared within the call."""
    left, right = list(left), list(right)
    codes = dict.fromkeys(m for _, _, p in left + right for m in p._terms)
    names = sorted({var for m in codes for var, _ in m})
    base = 2 * max((exp for m in codes for _, exp in m), default=0) + 1
    weights = {var: base**digit for digit, var in enumerate(names)}
    for m in codes:
        codes[m] = sum([weights[var] * exp for var, exp in m])
    by_row: dict[int, list[tuple[int, list[tuple[int, Coefficient]]]]] = {}
    for k, j, q in right:
        by_row.setdefault(k, []).append((j, [(codes[m], c) for m, c in q._terms.items()]))
    sums: dict[tuple[int, int], dict[int, Coefficient]] = {}
    for i, k, p in left:
        row = by_row.get(k)
        if row is None:
            continue
        packed = [(codes[m], c) for m, c in p._terms.items()]
        for j, packed_q in row:
            acc = sums.setdefault((i, j), {})
            for code_a, coeff_a in packed:
                for code_b, coeff_b in packed_q:
                    code = code_a + code_b
                    acc[code] = acc.get(code, 0) + coeff_a * coeff_b
    shared: list[dict[int, tuple[str, int]]] = [{} for _ in names]
    monomials: dict[int, Monomial] = {code: m for m, code in codes.items()}
    entries: dict[tuple[int, int], Polynomial] = {}
    for key, acc in sums.items():
        terms: dict[Monomial, Coefficient] = {}
        for code, total in acc.items():
            if not total:
                continue
            mono = monomials.get(code)
            if mono is None:
                rest, pairs = code, []
                for var, pair_of in zip(names, shared):
                    rest, exp = divmod(rest, base)
                    if exp:
                        pairs.append(pair_of.setdefault(exp, (var, exp)))
                mono = monomials[code] = tuple(pairs)
            terms[mono] = _num(total)
        if terms:
            entries[key] = _make(terms)
    return entries


def _collected(sums: dict[Monomial, Coefficient]) -> Polynomial:
    """``sums`` normalised, zeros dropped, built once (``ZERO`` if none is left)."""
    terms = {mono: _num(total) for mono, total in sums.items() if total}
    return _make(terms) if terms else ZERO


def _make(terms: dict[Monomial, Coefficient]) -> Polynomial:
    """Wrap ``terms``, already meeting every ``_audit`` invariant, uncopied."""
    p = object.__new__(Polynomial)
    p._terms = terms
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
    """Deterministic textual form; re-parses to an equal polynomial.  Raises
    :class:`SizeGuardError` for a coefficient beyond the interpreter's
    int-string digit limit."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for index, monomial in enumerate(sorted(p._terms, key=_grlex_key)):
        coefficient = p._terms[monomial]
        try:
            magnitude = str(abs(coefficient))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            message = f"a coefficient exceeds the limit of {limit} digits for printing"
            raise SizeGuardError(message) from None
        factors = "*".join(
            f"{var}^{exp}" if exp > 1 else var for var, exp in monomial
        )
        if not factors:
            body = magnitude
        elif magnitude == "1":
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


# A value is read as one list of tokens: a numeral (``\d+``), a word
# (``\w+``) or any other single non-space character, whitespace skipped.  For
# ``str`` patterns ``re`` defines ``\s``, ``\d`` and ``\w`` by ``str.isspace``,
# ``str.isdecimal`` and ``str.isalnum() or '_'``: the grammar's space, digit and
# name character.  A name is a word that starts with a ``str.isalpha`` letter;
# no word starts with a digit, so ``2x`` is ``2`` then ``x``, and ``x2`` a name.
_TOKEN = re.compile(r"\d+|\w+|\S")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then the end sentinel ``""``."""
    return _TOKEN.findall(text) + [""]


def _position(text: str, index: int) -> int:
    """The 0-based position in ``text`` of its token ``index`` (``len(text)``
    for the sentinel), found by scanning again: only an error needs it."""
    return next((m.start() for m in islice(_TOKEN.finditer(text), index, None)), len(text))


def _numeral(text: str, tokens: list[str], i: int) -> int:
    try:
        return int(tokens[i])
    except ValueError:  # beyond the interpreter's int-string digit limit
        limit = sys.get_int_max_str_digits()
        message = f"numeral of {len(tokens[i])} digits exceeds the limit of {limit} digits"
        raise PolynomialSyntaxError(message, _position(text, i)) from None


def _parse_term(text: str, tokens: list[str], i: int) -> tuple[Monomial, Coefficient, int]:
    """Read the term at token ``i``: its monomial, its coefficient and the
    index of the token after it.  An error after a '^' or '/' sits just
    after it, not on the next token."""
    coefficient = 1
    if tokens[i] == "-":  # a bare '-x' reads as -1*x
        coefficient, i = -1, i + 1
    if tokens[i].isdecimal():
        coefficient, i = coefficient * _numeral(text, tokens, i), i + 1
        if tokens[i] == "/":
            if not tokens[i + 1].isdecimal():
                message = "expected denominator after '/'"
                raise MalformedRationalError(message, _position(text, i) + 1)
            if not (denominator := _numeral(text, tokens, i + 1)):
                raise MalformedRationalError("zero denominator", _position(text, i) + 1)
            coefficient, i = _num(Fraction(coefficient, denominator)), i + 2
        if tokens[i] == "*":
            i += 1
        elif not tokens[i][:1].isalpha():
            return (), coefficient, i
    sums: dict[str, int] = {}
    while True:
        name, exponent = tokens[i], 1
        if not name[:1].isalpha():
            message = "expected a variable" if sums else "expected a term"
            raise PolynomialSyntaxError(message, _position(text, i))
        if caret := tokens[i + 1] == "^":
            if not tokens[i + 2].isdecimal():
                message = "expected an exponent after '^'"
                raise PolynomialSyntaxError(message, _position(text, i + 1) + 1)
            exponent, i = _numeral(text, tokens, i + 2), i + 2
        # x^a*x^b is x^(a+b), and its canonical form must parse again
        sums[name] = total = sums.get(name, 0) + exponent
        if total > MAX_EXPONENT:  # just after the '^', or at the name if it has none
            position = _position(text, i - 1) + 1 if caret else _position(text, i)
            raise ExponentOverflowError(f"exponent {total} exceeds limit {MAX_EXPONENT}", position)
        if tokens[i + 1] != "*":
            return _monomial(sums.items()), coefficient, i + 1
        i += 2


def _parse_sum(text: str, tokens: list[str], i: int) -> tuple[Polynomial, int]:
    """Read ``term (('+'|'-') term)*`` from token ``i``, stopping before any
    other symbol: the sum, and the index of the token after it."""
    terms: dict[Monomial, Coefficient] = {}
    sign = "+"
    while True:
        monomial, coefficient, i = _parse_term(text, tokens, i)
        terms[monomial] = terms.get(monomial, 0) + (-coefficient if sign == "-" else coefficient)
        sign = tokens[i]
        if sign != "+" and sign != "-":
            return _collected(terms), i
        i += 1


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``text`` into a :class:`Polynomial`.

    Raises :class:`PolynomialSyntaxError`, :class:`MalformedRationalError` or
    :class:`ExponentOverflowError` with the offending character position.
    """
    tokens = _tokenize(text)
    if not tokens[0]:
        raise PolynomialSyntaxError("empty polynomial", len(text))
    result, i = _parse_sum(text, tokens, 0)
    if tokens[i]:
        raise PolynomialSyntaxError(f"unexpected character {tokens[i][0]!r}", _position(text, i))
    return result


# ---------------------------------------------------------------------------
# random generation (used by samplers and property tests)


# The variables and the coefficient range of random_polynomial's terms.
_RANDOM_VARIABLES = ("x", "y", "z")
_RANDOM_COEFFICIENT_BOUND = 3


def random_polynomial(
    rng, max_degree: int = 2, max_terms: int = 3, allow_zero: bool = True
) -> Polynomial:
    """Draw a small random polynomial from ``rng`` (a ``random.Random``)."""
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    terms: dict[Monomial, int] = {}
    for _ in range(n_terms):
        coefficient = 0
        while coefficient == 0:
            coefficient = rng.randint(-_RANDOM_COEFFICIENT_BOUND, _RANDOM_COEFFICIENT_BOUND)
        degree = rng.randint(0, max_degree)
        monomial = _monomial((rng.choice(_RANDOM_VARIABLES), 1) for _ in range(degree))
        terms[monomial] = terms.get(monomial, 0) + coefficient
    total = Polynomial(terms)
    if not allow_zero and total.is_zero():
        return Polynomial.one()
    return total
