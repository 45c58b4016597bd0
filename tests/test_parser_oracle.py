"""The token-list parsers agree with the reference cursor scanner.

Every input, well formed or not, must give the same value, or the same
exception class, message and position, from :func:`parse_polynomial` and
:func:`parse_matrix` as from ``reference_parse_polynomial`` and
``reference_parse_matrix`` in ``tests/support.py``.  Inputs are drawn from the
grammar's symbols, spaces (a no-break space and a line separator among them),
the Unicode characters the character classes must place (a letter, a
superscript digit, a vulgar fraction, an Arabic-Indic and a fullwidth digit,
the underscore) and numerals beyond the interpreter's int-string digit limit.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfcat.errors import MfcatError
from mfcat.matrices import parse_matrix
from mfcat.polynomials import parse_polynomial

from support import reference_parse_matrix, reference_parse_polynomial

ROOT = Path(__file__).resolve().parent.parent

_LONG = "9" * 5000
# one numeral in 25 is beyond the digit limit, so most literals of nine
# entries still parse
_NUMERAL = st.sampled_from(["0", "1", "2", "10", "600000", "1000000", "٣", "３"] * 3 + [_LONG])
_NAME = st.sampled_from(["x", "y", "xy", "x2", "z_1", "é", "x²"])
_SPACE = st.sampled_from(["", "", " ", "\u00a0", "\u2028"])
_PIECES = st.sampled_from([
    "+", "-", "*", "^", "/", "[", "]", ",", "[[", "]]", "], [",
    "0", "1", "2", "10", "600000", "1000000",
    "x", "y", "xy", "x2", "z_1",
    " ", "\u00a0", "\u2028",
    "é", "²", "½", "٣", "３", "_",
    _LONG,
])


@st.composite
def _noisy(draw, tokens):
    """``tokens`` with up to two pieces inserted, joined by random spaces."""
    tokens = list(tokens)
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_PIECES))
    return "".join(draw(_SPACE) + token for token in tokens)


@st.composite
def _sum_tokens(draw):
    """The tokens of a well-formed sum of up to four terms."""
    tokens = []
    for index in range(draw(st.integers(1, 4))):
        if index or draw(st.booleans()):
            tokens.append(draw(st.sampled_from(["+", "-"])))
        coefficient = draw(st.sampled_from([None, "nat", "rational"]))
        if coefficient:
            tokens.append(draw(_NUMERAL))
        if coefficient == "rational":
            tokens += ["/", draw(_NUMERAL)]
        factors = draw(st.integers(0 if coefficient else 1, 3))
        if coefficient and factors and draw(st.booleans()):
            tokens.append("*")
        for factor in range(factors):
            tokens += ["*"] * bool(factor) + [draw(_NAME)]
            if draw(st.booleans()):
                tokens += ["^", draw(_NUMERAL)]
    return tokens


@st.composite
def _literal_tokens(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tokens = ["["]
    for row in range(rows):
        tokens += [","] * bool(row) + ["["]
        for col in range(cols):
            tokens += [","] * bool(col) + draw(_sum_tokens())
        tokens.append("]")
    return tokens + ["]"]


_FREE = st.lists(_PIECES, max_size=14).map("".join)
_POLYNOMIAL = st.one_of(_FREE, _sum_tokens().flatmap(_noisy))
_LITERAL = st.one_of(_FREE, _literal_tokens().flatmap(_noisy))


def _outcome(parse, text):
    """The value ``parse`` reads from ``text``, or its error as
    ``(class, message, position)``."""
    try:
        return parse(text)
    except MfcatError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _assert_same(parse, reference, text):
    got, expected = _outcome(parse, text), _outcome(reference, text)
    assert got == expected
    assert str(got) == str(expected)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_POLYNOMIAL)
def test_polynomials_read_as_the_reference_scanner_reads_them(text):
    _assert_same(parse_polynomial, reference_parse_polynomial, text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_LITERAL)
def test_matrix_literals_read_as_the_reference_scanner_reads_them(text):
    _assert_same(parse_matrix, reference_parse_matrix, text)


_FILES = sorted(ROOT.glob("samples/*.mf")) + sorted(ROOT.glob("tests/data/*.mf"))


@pytest.mark.parametrize("path", _FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_files_read_as_the_reference_scanner_reads_them(path):
    values = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.strip() == "potential":
            _assert_same(parse_polynomial, reference_parse_polynomial, value.strip())
        elif key.strip() in ("phi", "psi"):
            _assert_same(parse_matrix, reference_parse_matrix, value.strip())
        values += bool(value.strip())
    assert values == 3
