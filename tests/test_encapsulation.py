"""Backend and parser internals stay inside the modules that own them.

``PolyMatrix`` stores a matrix as a column map (``_map``) or a dict of
entries (``_entries``), and only :mod:`mfcat.matrices` may read either or
call its private helpers; the polynomial tokenizer is shared by
:mod:`mfcat.polynomials` and the matrix-literal parser alone, and the
sum-of-products kernel by ``*`` and the matrix product alone, and the
number rule by polynomial arithmetic and matrix entries alone, the trusted
object and morphism constructors by the closed constructions alone; verdicts
(:mod:`mfcat.reporting`) by the check layer and the CLI alone, and within
the check layer by its one verdict rule but for a listed few.  A module
that reached past these lines would tie itself to one backend and could
build values the constructor never checked.  The modules are read as text,
never imported.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mfcat"

MATRIX_PRIVATE = re.compile(
    r"\._map\b|\._entries\b|\b(?:_guard|_canonical_map|_map_kronecker|_placed|_make_matrix)\b"
)
PARSER_PRIVATE = re.compile(r"\b(?:_tokenize|_position|_parse_sum)\b")
KERNEL_PRIVATE = re.compile(r"\b_packed_product\b")
TRUSTED_CONSTRUCTORS = re.compile(r"\b(?:_make_factorization|_make_morphism)\b")
NUMBER_RULE = re.compile(r"\b_coerce\b")


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
        ["._map", "._entries", "_canonical_map", "_guard", "_make_matrix", "_map_kronecker",
         "_placed"]
    )
    assert uses == {}


def test_polynomial_scanner_stays_in_the_two_parsers():
    uses = _uses(PARSER_PRIVATE)
    # the tokenizer, its error positions and the sum reader
    assert uses.pop("polynomials.py") == ["_parse_sum", "_position", "_tokenize"]
    assert uses.pop("matrices.py") == ["_parse_sum", "_position", "_tokenize"]
    assert uses == {}


def test_sum_of_products_kernel_stays_in_the_two_arithmetic_modules():
    uses = _uses(KERNEL_PRIVATE)
    assert uses.pop("polynomials.py") == ["_packed_product"]
    assert uses.pop("matrices.py") == ["_packed_product"]
    assert uses == {}


def test_trusted_constructors_stay_with_the_closed_constructions():
    # The check layer and the CLI build objects and morphisms from values a
    # caller or a search chose, so they keep the validating constructors.
    uses = _uses(TRUSTED_CONSTRUCTORS)
    assert uses.pop("factorizations.py") == ["_make_factorization", "_make_morphism"]
    assert uses.pop("tensor_products.py") == ["_make_factorization", "_make_morphism"]
    assert uses == {}


def test_number_rule_stays_in_the_two_arithmetic_modules():
    uses = _uses(NUMBER_RULE)
    assert uses.pop("polynomials.py") == ["_coerce"]
    assert uses.pop("matrices.py") == ["_coerce"]
    assert uses == {}


def _imports(path):
    """Every module, and every ``module.name``, that ``path`` imports, with
    the package's relative imports spelled absolutely."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["mfcat" if node.level else None, node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_the_check_layer_and_the_cli_import_reporting():
    # the layers below the checks build values and give no verdicts;
    # __init__.py only re-exports the public names
    importers = {
        path.name for path in SRC.glob("*.py") if "mfcat.reporting" in set(_imports(path))
    }
    assert importers - {"__init__.py"} == {"axiom_suites.py", "cli.py"}


def _report_builders(path):
    """Function name -> its calls of ``CheckReport(``, and how many of those
    sit in an ``except`` branch."""
    builders = {}
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, ast.FunctionDef):
            continue
        in_handlers = {
            id(node)
            for handler in ast.walk(function) if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler)
        }
        calls = [
            node for node in ast.walk(function)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckReport"
        ]
        if calls:
            builders[function.name] = (len(calls), sum(id(c) in in_handlers for c in calls))
    return builders


def test_verdicts_go_through_the_one_rule():
    # Every verdict that a comparison decides is built by ``_report``.  The
    # pentagon and semi-unit diagram (1) are PASS by construction; the
    # rearrangement's two exception branches and Ax.2's one, taken when no
    # witness exists, build theirs directly.
    assert _report_builders(SRC / "axiom_suites.py") == {
        "_report": (2, 0),
        "check_pentagon": (1, 0),
        "check_semiunit_diagram1": (1, 0),
        "_semiunit_rearrangement": (2, 2),
        "_ax2_single": (1, 1),
    }
