"""Backend and parser internals stay inside the modules that own them.

``PolyMatrix`` stores a matrix as a column map (``_map``) or a dict of
entries (``_entries``), and only :mod:`mfcat.matrices` may read either or
call its private helpers; the polynomial scanner is shared by
:mod:`mfcat.polynomials` and the matrix-literal parser alone, and the
sum-of-products kernel by ``*`` and the matrix product alone.  A module
that reached past these lines would tie itself to one backend and could
build values the constructor never checked.  The modules are read as text,
never imported.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mfcat"

MATRIX_PRIVATE = re.compile(
    r"\._map\b|\._entries\b|\b(?:_guard|_checked_map|_map_kronecker|_placed)\b"
)
PARSER_PRIVATE = re.compile(r"\b(?:_Tokenizer|_parse_sum)\b")
KERNEL_PRIVATE = re.compile(r"\b_sum_of_products\b")


def _uses(pattern):
    """Module file name -> sorted distinct matches of ``pattern`` in it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = sorted(set(pattern.findall(path.read_text())))
        if names:
            found[path.name] = names
    return found


def test_matrix_backend_internals_stay_in_the_matrix_module():
    uses = _uses(MATRIX_PRIVATE)
    # the scan is not vacuous: the owning module does use every name
    assert uses.pop("matrices.py") == sorted(
        ["._map", "._entries", "_guard", "_checked_map", "_map_kronecker", "_placed"]
    )
    assert uses == {}


def test_polynomial_scanner_stays_in_the_two_parsers():
    uses = _uses(PARSER_PRIVATE)
    assert uses.pop("polynomials.py") == ["_Tokenizer", "_parse_sum"]
    assert uses.pop("matrices.py") == ["_Tokenizer", "_parse_sum"]
    assert uses == {}


def test_sum_of_products_kernel_stays_in_the_two_arithmetic_modules():
    uses = _uses(KERNEL_PRIVATE)
    assert uses.pop("polynomials.py") == ["_sum_of_products"]
    assert uses.pop("matrices.py") == ["_sum_of_products"]
    assert uses == {}
