"""Shared generators and independent oracles for the test suite.

The oracles here recompute results by definition expansion (dense loops over
entries, term-by-term convolution) so that the library's sparse fast paths
are checked against something that does not share their code.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

from mfcat.errors import (
    ExponentOverflowError,
    MalformedRationalError,
    MatrixSyntaxError,
    ParseError,
    PolynomialSyntaxError,
)
from mfcat.factorizations import MatrixFactorization, MfMorphism
from mfcat.matrices import PolyMatrix
from mfcat.polynomials import MAX_EXPONENT, ONE, ZERO, Polynomial, random_polynomial
from mfcat.t_subcategory import e_power


# ---------------------------------------------------------------------------
# independent oracles


def naive_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    # term-by-term convolution on raw exponent dicts
    out: dict = {}
    for mono_p, coeff_p in p.terms.items():
        for mono_q, coeff_q in q.terms.items():
            exps = dict(mono_p)
            for var, e in mono_q:
                exps[var] = exps.get(var, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + coeff_p * coeff_q
    total = ZERO
    for key, coeff in out.items():
        total = total + Polynomial({key: coeff})
    return total


def naive_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    dense_a, dense_b = a.to_rows(), b.to_rows()
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = ZERO
            for k in range(a.cols):
                total = total + naive_mul(dense_a[i][k], dense_b[k][j])
            row.append(total)
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def naive_kronecker(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    dense_a, dense_b = a.to_rows(), b.to_rows()
    rows = []
    for i in range(a.rows * b.rows):
        row = []
        for j in range(a.cols * b.cols):
            row.append(naive_mul(dense_a[i // b.rows][j // b.cols], dense_b[i % b.rows][j % b.cols]))
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def naive_doubled_kronecker(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """I_2 (x) (a (x) b) densely: a component of the tensor of two morphisms."""
    return naive_kronecker(PolyMatrix.identity(2), naive_kronecker(a, b))


def dense_leading_diagonal(rows: int, cols: int) -> PolyMatrix:
    """The rows x cols 0/1 matrix with ones at (k, k) for k < min(rows, cols),
    from dense rows."""
    return PolyMatrix.from_rows([[int(i == j) for j in range(cols)] for i in range(rows)])


def dense_hstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """[a, b] from the dense rows of both blocks."""
    assert a.rows == b.rows
    return PolyMatrix.from_rows([ra + rb for ra, rb in zip(a.to_rows(), b.to_rows())])


def dense_vstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """[[a], [b]] from the dense rows of both blocks."""
    assert a.cols == b.cols
    return PolyMatrix.from_rows(a.to_rows() + b.to_rows())


def dense_block2x2(tl: PolyMatrix, tr: PolyMatrix, bl: PolyMatrix, br: PolyMatrix) -> PolyMatrix:
    return dense_vstack(dense_hstack(tl, tr), dense_hstack(bl, br))


# ---------------------------------------------------------------------------
# reference parsers: a cursor scanner that reads one token per step and
# finds whitespace, numerals and names by matching at its position.  It
# builds each value through the public constructors, so the library's token
# list parser is checked against code that shares neither its tokenizer nor
# its error positions.

_SPACE = re.compile(r"\s*").match
_DIGITS = re.compile(r"\d+").match
_WORD = re.compile(r"\w*").match


class _Scanner:
    """A cursor over ``text``; each read skips the whitespace before it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The next character ('' at the end), with ``pos`` moved onto it."""
        self.pos = _SPACE(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def take_symbol(self, symbols: str) -> str | None:
        ch = self.peek()
        if ch and ch in symbols:
            self.pos += 1
            return ch
        return None

    def take_nat(self) -> int | None:
        self.peek()
        match = _DIGITS(self.text, self.pos)
        if match is None:
            return None
        digits, self.pos = match.group(), match.end()
        try:
            return int(digits)
        except ValueError:
            raise PolynomialSyntaxError(
                f"numeral of {len(digits)} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits",
                match.start(),
            ) from None

    def take_name(self) -> str | None:
        if not self.peek().isalpha():
            return None
        start = self.pos
        self.pos = _WORD(self.text, start + 1).end()
        return self.text[start : self.pos]

    def at_end(self) -> bool:
        return not self.peek()


def _reference_rational(tok: _Scanner):
    numerator = tok.take_nat()
    if not tok.take_symbol("/"):
        return numerator
    denom_pos = tok.pos
    denominator = tok.take_nat()
    if denominator is None:
        raise MalformedRationalError("expected denominator after '/'", denom_pos)
    if denominator == 0:
        raise MalformedRationalError("zero denominator", denom_pos)
    return Fraction(numerator, denominator)


def _reference_term(tok: _Scanner):
    coefficient = -1 if tok.take_symbol("-") else 1
    if tok.peek().isdecimal():
        coefficient *= _reference_rational(tok)
        if not tok.take_symbol("*") and not tok.peek().isalpha():
            return (), coefficient
    exponents: dict = {}
    while True:
        name = tok.take_name()
        if name is None:
            message = "expected a variable" if exponents else "expected a term"
            raise PolynomialSyntaxError(message, tok.pos)
        position, exponent = tok.pos - len(name), 1
        if tok.take_symbol("^"):
            position = tok.pos
            exponent = tok.take_nat()
            if exponent is None:
                raise PolynomialSyntaxError("expected an exponent after '^'", position)
        exponent += exponents.get(name, 0)
        if exponent > MAX_EXPONENT:
            raise ExponentOverflowError(
                f"exponent {exponent} exceeds limit {MAX_EXPONENT}", position
            )
        exponents[name] = exponent
        if not tok.take_symbol("*"):
            return tuple(sorted((v, e) for v, e in exponents.items() if e)), coefficient


def _reference_sum(tok: _Scanner) -> Polynomial:
    terms: dict = {}
    sign = "+"
    while sign:
        monomial, coefficient = _reference_term(tok)
        terms[monomial] = terms.get(monomial, 0) + (-coefficient if sign == "-" else coefficient)
        sign = tok.take_symbol("+-")
    return Polynomial(terms)


def reference_parse_polynomial(text: str) -> Polynomial:
    tok = _Scanner(text)
    if tok.at_end():
        raise PolynomialSyntaxError("empty polynomial", tok.pos)
    result = _reference_sum(tok)
    if not tok.at_end():
        raise PolynomialSyntaxError(f"unexpected character {tok.peek()!r}", tok.pos)
    return result


def _reference_list(tok: _Scanner, parse_item) -> list:
    if tok.take_symbol("[") is None:
        raise MatrixSyntaxError("expected '['", tok.pos)
    items = [parse_item(tok)]
    while tok.take_symbol(","):
        items.append(parse_item(tok))
    if tok.take_symbol("]") is None:
        raise MatrixSyntaxError("expected ']'", tok.pos)
    return items


def _reference_entry(tok: _Scanner) -> Polynomial:
    try:
        return _reference_sum(tok)
    except ParseError as exc:
        raise MatrixSyntaxError(f"bad entry: {exc.message}", exc.position) from exc


def reference_parse_matrix(text: str) -> PolyMatrix:
    tok = _Scanner(text)
    rows = _reference_list(tok, lambda tok: _reference_list(tok, _reference_entry))
    if not tok.at_end():
        raise MatrixSyntaxError("trailing input after matrix literal", tok.pos)
    return PolyMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# random generators


def random_matrix(rng: random.Random, rows: int, cols: int, max_degree=1) -> PolyMatrix:
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.7:
                p = random_polynomial(rng, max_degree=max_degree, max_terms=2)
                if not p.is_zero():
                    entries[(i, j)] = p
    return PolyMatrix(rows, cols, entries)


def random_sub_permutation(rng: random.Random, rows: int, cols: int) -> PolyMatrix:
    k = rng.randint(0, min(rows, cols))
    chosen_rows = rng.sample(range(rows), k)
    chosen_cols = rng.sample(range(cols), k)
    return PolyMatrix(rows, cols, {(r, c): ONE for r, c in zip(chosen_rows, chosen_cols)})


def random_t_morphism(rng: random.Random, max_pow: int = 4) -> MfMorphism:
    m = rng.randint(1, max_pow)
    p = rng.randint(1, max_pow)
    delta = random_sub_permutation(rng, 1 << (p - 1), 1 << (m - 1))
    return MfMorphism(e_power(m), e_power(p), delta, delta)


def _constant_unimodular(rng: random.Random, n: int, steps: int = 3):
    """A random integer unimodular matrix and its inverse (constant entries)."""
    m = PolyMatrix.identity(n)
    m_inv = PolyMatrix.identity(n)
    for _ in range(steps):
        if n == 1:
            break
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = Polynomial.constant(rng.choice([-2, -1, 1, 2]))
        eye = {(k, k): ONE for k in range(n)}
        fwd = dict(eye)
        fwd[(i, j)] = c
        back = dict(eye)
        back[(i, j)] = -c
        m = PolyMatrix(n, n, fwd) @ m
        m_inv = m_inv @ PolyMatrix(n, n, back)
    return m, m_inv


def random_valid_mf(
    rng: random.Random, size: int, asymmetric: bool = False, zero: bool = False
) -> MatrixFactorization:
    """A random factorization of a random product potential u*v.

    Built as a divisor diagonal (each slot multiplies to u*v) conjugated by a
    constant unimodular matrix, so entries stay within degree 2 and at most
    three variables.  With ``asymmetric=True`` the factors u and v live in
    different variables and at least one slot is swapped, forcing phi != psi.
    With ``zero=True`` u is 0, so the potential is 0.
    """
    if asymmetric:
        u = Polynomial({(("x", 1),): 1}) + Polynomial.constant(rng.randint(1, 3))
        v = Polynomial({(("y", 1),): 1}) + Polynomial.constant(rng.randint(1, 3))
    else:
        u = random_polynomial(rng, max_degree=1, max_terms=2, allow_zero=False)
        v = random_polynomial(rng, max_degree=1, max_terms=2, allow_zero=False)
    if zero:
        u = ZERO
    f = u * v
    slots = []
    for index in range(size):
        if asymmetric and index == 0:
            slots.append((u, v))
        elif asymmetric and index == 1:
            slots.append((v, u))
        else:
            slots.append(rng.choice([(u, v), (v, u), (f, ONE), (ONE, f)]))
    phi = PolyMatrix(size, size, {(i, i): slots[i][0] for i in range(size)})
    psi = PolyMatrix(size, size, {(i, i): slots[i][1] for i in range(size)})
    t, t_inv = _constant_unimodular(rng, size)
    return MatrixFactorization(t @ phi @ t_inv, t @ psi @ t_inv, f)


def _matrix_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[p + q for p, q in zip(row_a, row_b)] for row_a, row_b in zip(a.to_rows(), b.to_rows())]
    )


def null_homotopic_pair(
    rng: random.Random, source: MatrixFactorization, target: MatrixFactorization
) -> tuple[PolyMatrix, PolyMatrix]:
    """(phi2*h + k*psi1, h*phi1 + psi2*k) for random h and k: a morphism
    source -> target at every potential, 0 included."""
    h = random_matrix(rng, target.size, source.size)
    k = random_matrix(rng, target.size, source.size)
    return (
        _matrix_sum(target.phi @ h, k @ source.psi),
        _matrix_sum(h @ source.phi, target.psi @ k),
    )


def random_mf1_morphism(
    rng: random.Random, src: MatrixFactorization, tgt: MatrixFactorization
) -> MfMorphism:
    """A random valid morphism in MF(1): beta is determined by alpha."""
    alpha = random_matrix(rng, tgt.size, src.size)
    beta = tgt.psi @ alpha @ src.phi
    return MfMorphism(src, tgt, alpha, beta)
