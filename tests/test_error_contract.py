"""Every error the library raises is an :class:`~mfcat.errors.MfcatError`.

The CLI turns exactly those errors into exit code 2, and callers tell library
failures from programming errors by them.  A ``raise`` in ``src/`` that names
any other class is a programming error (a misuse of a value's own API) and is
listed in ``PROGRAMMING_ERRORS`` with the reason it stays, keyed by the
enclosing function and the raised class.  ``python -O`` strips ``assert``
statements, so no check in ``src/`` may be one: only the internal invariant
hook ``Polynomial._audit`` asserts.  The modules are read as text; only the
error hierarchy is imported.
"""

import ast
from pathlib import Path

from mfcat import errors
from mfcat.errors import MfcatError

SRC = Path(__file__).resolve().parent.parent / "src" / "mfcat"

PROGRAMMING_ERRORS = {
    ("_coerce_entry", "TypeError"): "a matrix entry of a type that is no polynomial or number",
    ("_guard", "TypeError"): "a matrix side that is no int (a float, a bool), which would "
    "otherwise be accepted and fail only when the matrix is printed or multiplied",
    ("PolyMatrix.__init__", "TypeError"): "entries that are no mapping, such as a column map, "
    "which is the matrix module's own storage format, or an entry index that is no pair of "
    "ints (a float, a bool, a triple, a bare int), which would otherwise fail only when the "
    "matrix is printed, or in a ValueError when the index is unpacked",
    ("PolyMatrix.from_rows", "TypeError"): "a string given as the rows or as a row, which would "
    "otherwise be split into one-character entries",
    ("MatrixFactorization.__init__", "TypeError"): "a factor that is no PolyMatrix or a potential "
    "that is no Polynomial; the object door coerces nothing",
    ("MfMorphism.__init__", "TypeError"): "an endpoint that is no MatrixFactorization or a "
    "component that is no PolyMatrix (a list of rows, None), which would otherwise end in an "
    "AttributeError; the morphism door coerces nothing",
    ("Polynomial.__init__", "ValueError"): "a variable the scanner would not read as one "
    "whole name, or an exponent that is not a non-negative int",
    ("Polynomial.constant", "TypeError"): "a coefficient that is no exact rational (a float "
    "or a string), as for int()",
}


def _scoped_nodes():
    """(enclosing ``function`` or ``Class.method``, node) for every AST node
    in ``src/`` that is not itself a class or function definition."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from visit(child, scope + [child.name])
                continue
            yield ".".join(scope), child
            yield from visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text()), [])


def _raised() -> set[tuple[str, str]]:
    """(enclosing ``function`` or ``Class.method``, raised class) for every
    ``raise`` in ``src/`` that names one; a bare re-raise names none."""
    found = set()
    for where, node in _scoped_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add((where, ast.unparse(exc)))
    return found


def test_every_raise_is_a_library_error_or_a_listed_programming_error():
    stray = {
        (where, name) for where, name in _raised()
        if not issubclass(getattr(errors, name, Exception), MfcatError)
    }
    assert sorted(stray - set(PROGRAMMING_ERRORS)) == []


def test_programming_errors_lists_only_raises_that_exist():
    assert sorted(set(PROGRAMMING_ERRORS) - _raised()) == []


def test_only_the_invariant_hook_asserts():
    asserting = {where for where, node in _scoped_nodes() if isinstance(node, ast.Assert)}
    assert asserting == {"Polynomial._audit"}
