"""Every public function and method of the library has a caller in ``src/``.

A public top-level function, or a public method of a public class, that no
module of the package names (``__init__.py``'s re-exports aside) is code
nothing runs: it is deleted, moved into ``tests/support.py`` as an oracle,
or listed in ``KEPT`` with the reason it stays.  A name that only tests call
is deleted, unless it models a notion of the paper or the benchmark reads
it; tests use the API that stays instead.  A function counts as used
when some module mentions it as a name or an attribute; a method only when
some module reads it as an attribute, so a local variable of the same name
does not hide an unused method.  The modules are read as text, never
imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mfcat"

KEPT = {
    "connecting_morphism": "paper notion: the canonical T-morphism e^m -> e^p",
    "is_t_morphism": "paper notion: membership of the T-subcategory",
    "l_iso": "paper notion: the isomorphism e (x) a -> a (x) e",
    "associator": "stays until a genuine associator on all of MF replaces it",
    "direct_sum": "the benchmark counter matrices.direct_sum_calls names it",
    "Polynomial.terms": "value query; bench/oracle.py and bench/layertrace.py read it",
}


def _public_definitions() -> dict[str, str]:
    """``name`` or ``Class.method`` -> the module file that defines it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = path.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        found[f"{node.name}.{member.name}"] = path.name
    return found


def _referenced_names() -> tuple[set[str], set[str]]:
    """(names, attributes) mentioned outside ``__init__.py``."""
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _unused() -> set[str]:
    names, attributes = _referenced_names()
    return {
        name for name in _public_definitions()
        if name.rsplit(".", 1)[-1] not in (attributes if "." in name else names | attributes)
    }


def test_every_public_function_and_method_is_used_in_src_or_kept():
    assert sorted(_unused() - set(KEPT)) == []


def test_kept_lists_only_defined_names_that_nothing_in_src_uses():
    assert sorted(set(KEPT) - _unused()) == []
