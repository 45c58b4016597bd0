"""The per-layer counters of ``bench/layertrace.py`` name live functions.

Each counter reads the tracer's call table by key ``<module>.<qualname>``;
a key that names nothing reads 0 without any error, so a rename in the
library would silently zero a counter.  The bench script is read as text,
never imported, so this test does not depend on the tracer running.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def _counter_keys() -> set[str]:
    tree = ast.parse(LAYERTRACE.read_text())
    (per_layer,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "PER_LAYER" for t in node.targets)
    ]
    return {
        arg.value
        for call in ast.walk(per_layer)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in ("n", "t")
        and getattr(call.func.value, "id", None) == "s"
        for arg in call.args
    }


def test_every_per_layer_key_resolves_in_its_module():
    keys = _counter_keys()
    modules = {key.split(".", 1)[0] for key in keys}
    assert modules == {
        "polynomials", "matrices", "factorizations", "tensor_products",
        "t_subcategory", "axiom_suites", "cli",
    }
    unresolved = []
    for key in sorted(keys):
        module_name, qualname = key.split(".", 1)
        target = importlib.import_module(f"mfcat.{module_name}")
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not (
            callable(target)
            and target.__module__ == f"mfcat.{module_name}"
            and target.__qualname__ == qualname
        ):
            unresolved.append(key)
    assert unresolved == []
