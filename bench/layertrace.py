"""Per-layer tracing of mfcat, installed from outside the library.

:class:`Tracer` wraps the public functions and methods of each layer module
(plus the arithmetic and comparison dunders and ``__init__`` of its classes,
and the CLI's two file helpers).  A module-level function is replaced in
*every* module namespace that holds it, because ``from .x import f`` copies
the name: patching only the defining module would miss most calls.
:meth:`Tracer.uninstall` puts every original object back.

Spans are kept in memory as a calling-context tree: one node per distinct
call path, holding the number of calls and their summed duration, with a
link to the parent node.  A per-call span list would hold millions of
entries per pass; the tree gives the same self times, because self time (a
span's duration minus the time its child spans cover) is additive over the
spans that share a path.  Time spent in the tracer's own counters is kept
out of the layer that called them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# module -> layer; ``reporting`` is rendered by the CLI and belongs to it.
LAYER_OF_MODULE = {
    "mfcat.polynomials": "polynomials",
    "mfcat.matrices": "matrices",
    "mfcat.factorizations": "factorizations",
    "mfcat.tensor_products": "tensor_products",
    "mfcat.t_subcategory": "t_subcategory",
    "mfcat.axiom_suites": "axiom_suites",
    "mfcat.cli": "cli",
    "mfcat.reporting": "cli",
}
LAYERS = ("polynomials", "matrices", "factorizations", "tensor_products",
          "t_subcategory", "axiom_suites", "cli")

DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__pow__", "__matmul__", "__eq__")
# The CLI's public surface is only ``main``; its read and write helpers are
# the layer's I/O boundary.
PRIVATE_TARGETS = {"mfcat.cli": ("_read_factorization", "_emit")}

TRACE_MARK = "_bench_traced"


class _Node:
    __slots__ = ("key", "layer", "parent", "children", "calls", "total", "excluded")

    def __init__(self, key, layer, parent):
        self.key, self.layer, self.parent = key, layer, parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.excluded = 0.0


def _key(module_name: str, qualname: str) -> str:
    return f"{module_name.rsplit('.', 1)[-1]}.{qualname}"


def _namespaces():
    """``(name, module, namespace)`` of every loaded module."""
    for mod_name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            yield mod_name, module, namespace


class Tracer:
    """Wraps mfcat's layers; one instance per traced process."""

    def __init__(self):
        self._stack: list[_Node] = []
        self._patches = []  # (owner, name, original value)
        self.extra = {}
        self.begin_pass()

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[name] for name in LAYER_OF_MODULE}
        originals = {}  # id(function) -> (function, wrapper)
        observers = self._observers(modules)
        for mod_name, module in modules.items():
            layer = LAYER_OF_MODULE[mod_name]
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__module__ == mod_name and (
                    not name.startswith("_") or name in PRIVATE_TARGETS.get(mod_name, ())
                ):
                    key = _key(mod_name, value.__qualname__)
                    originals[id(value)] = (value, self._wrap(value, key, layer, observers.get(key)))
                elif isinstance(value, type) and value.__module__ == mod_name and not name.startswith("_"):
                    self._install_class(value, mod_name, layer, observers)
        # Replace each wrapped function wherever a module imported it.
        for _, module, namespace in _namespaces():
            for name, value in list(namespace.items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])

    def _install_class(self, cls, mod_name, layer, observers) -> None:
        wrapped = {}  # aliases such as __radd__ = __add__ share one wrapper
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            is_static = isinstance(value, staticmethod)
            fn = value.__func__ if is_static else value
            if not isinstance(fn, types.FunctionType):
                continue  # properties, constants
            if id(fn) not in wrapped:
                key = _key(mod_name, fn.__qualname__)
                wrapped[id(fn)] = self._wrap(fn, key, layer, observers.get(key))
            wrapper = wrapped[id(fn)]
            self._patch(cls, name, staticmethod(wrapper) if is_static else wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Names, in any loaded module or mfcat class, still bound to a wrapper."""
        found = []
        for mod_name, _, namespace in _namespaces():
            for name, value in list(namespace.items()):
                if isinstance(value, types.FunctionType) and getattr(value, TRACE_MARK, False):
                    found.append(f"{mod_name}.{name}")
                if isinstance(value, type) and mod_name in LAYER_OF_MODULE:
                    for attr, member in vars(value).items():
                        member = getattr(member, "__func__", member)
                        if getattr(member, TRACE_MARK, False):
                            found.append(f"{mod_name}.{name}.{attr}")
        return found

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, key, layer, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(key)
            if node is None:
                node = parent.children[key] = _Node(key, layer, parent)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += clock() - start
                node.calls += 1
                stack.pop()
            if observe is not None:
                start = clock()
                observe(args, kwargs, result)
                parent.excluded += clock() - start
            return result

        setattr(traced, TRACE_MARK, True)
        return traced

    def _observers(self, modules):
        """Counters that need the arguments or result of a call.

        They call only *original* methods, captured here before wrapping,
        that call no traced method, so they add nothing to the counts.
        """
        poly_cls = modules["mfcat.polynomials"].Polynomial
        matrix_cls = modules["mfcat.matrices"].PolyMatrix
        is_constant = poly_cls.is_constant
        nnz = matrix_cls.nnz
        extra = self.extra

        def on_poly_mul(args, kwargs, result):
            if isinstance(result, poly_cls):
                extra["mul_terms_out"] += len(result.terms)
            a, b = args
            if is_constant(a) and (not isinstance(b, poly_cls) or is_constant(b)):
                extra["const_muls"] += 1

        def on_matmul(args, kwargs, result):
            a, b = args
            if result is a or result is b:  # an identity operand, passed through
                extra["identity_matmuls"] += 1
            elif isinstance(result, matrix_cls):
                extra["matmul_nnz_out"] += nnz(result)

        def on_matrix_init(args, kwargs, result):
            m = args[0]
            extra["max_side"] = max(extra["max_side"], m.rows, m.cols)

        def on_emit(args, kwargs, result):
            text = args[0] if args else kwargs["text"]
            extra["bytes_out"] += len(text.encode("utf-8"))

        return {
            "polynomials.Polynomial.__mul__": on_poly_mul,
            "matrices.PolyMatrix.__matmul__": on_matmul,
            "matrices.PolyMatrix.__init__": on_matrix_init,
            "cli._emit": on_emit,
        }

    def begin_pass(self) -> None:
        self._stack[:] = [_Node("<root>", None, None)]
        self.extra.clear()
        self.extra.update(mul_terms_out=0, const_muls=0, identity_matmuls=0,
                          matmul_nnz_out=0, max_side=0, bytes_out=0)

    # -- results --------------------------------------------------------------

    def summary(self) -> "PassSummary":
        """Calls, inclusive times and layer self times of the current pass."""
        root = self._stack[0]
        calls, inclusive = {}, {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        todo = [(child, frozenset()) for child in root.children.values()]
        while todo:
            node, path = todo.pop()
            child_time = sum(c.total for c in node.children.values())
            self_s[node.layer] += node.total - child_time - node.excluded
            calls[node.key] = calls.get(node.key, 0) + node.calls
            if node.key not in path:  # outermost call of this function
                inclusive[node.key] = inclusive.get(node.key, 0.0) + node.total
            inner = path | {node.key}
            todo.extend((c, inner) for c in node.children.values())
        return PassSummary(calls, inclusive, self_s, dict(self.extra))

    def tree(self) -> list[dict]:
        """The calling-context tree, one record per node with its parent id."""
        out = []
        todo = [(self._stack[0], None)]
        while todo:
            node, parent_id = todo.pop()
            node_id = len(out)
            out.append({"id": node_id, "parent": parent_id, "name": node.key,
                        "layer": node.layer, "calls": node.calls, "total_s": node.total,
                        "excluded_s": node.excluded})
            todo.extend((c, node_id) for c in node.children.values())
        return out

    def write_tree(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.tree(), fh)


class PassSummary:
    __slots__ = ("calls", "inclusive", "self_s", "extra")

    def __init__(self, calls, inclusive, self_s, extra):
        self.calls, self.inclusive, self.self_s, self.extra = calls, inclusive, self_s, extra

    def n(self, *keys) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def t(self, *keys) -> float:
        return sum(self.inclusive.get(k, 0.0) for k in keys)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Per-layer metric -> (unit, better, extractor).  Every metric not in
# seconds is a count or a ratio of counts and must repeat exactly between
# runs with the same seed; times are medians over the traced passes.
PER_LAYER = {
    "polynomials.mul_calls": ("count", "lower", lambda s: s.n("polynomials.Polynomial.__mul__")),
    "polynomials.add_calls": ("count", "lower", lambda s: s.n("polynomials.Polynomial.__add__")),
    "polynomials.construct_calls": ("count", "lower", lambda s: s.n("polynomials.Polynomial.__init__")),
    "polynomials.mul_terms_out": ("count", "lower", lambda s: s.extra["mul_terms_out"]),
    "polynomials.const_mul_ratio": ("ratio", "higher", lambda s: _ratio(
        s.extra["const_muls"], s.n("polynomials.Polynomial.__mul__"))),
    "polynomials.parse_calls": ("count", "lower", lambda s: s.n("polynomials.parse_polynomial")),
    "polynomials.print_calls": ("count", "lower", lambda s: s.n("polynomials.canonical_string")),
    "polynomials.self_s": ("s", "lower", lambda s: s.self_s["polynomials"]),
    "matrices.parse_calls": ("count", "lower", lambda s: s.n("matrices.parse_matrix")),
    "matrices.matmul_calls": ("count", "lower", lambda s: s.n("matrices.PolyMatrix.__matmul__")),
    "matrices.matmul_identity_ratio": ("ratio", "higher", lambda s: _ratio(
        s.extra["identity_matmuls"], s.n("matrices.PolyMatrix.__matmul__"))),
    "matrices.matmul_nnz_out": ("count", "lower", lambda s: s.extra["matmul_nnz_out"]),
    "matrices.kron_calls": ("count", "lower", lambda s: s.n("matrices.kronecker")),
    "matrices.direct_sum_calls": ("count", "lower", lambda s: s.n("matrices.direct_sum")),
    "matrices.eq_calls": ("count", "lower", lambda s: s.n("matrices.PolyMatrix.__eq__")),
    "matrices.max_side": ("rows", "lower", lambda s: s.extra["max_side"]),
    "matrices.self_s": ("s", "lower", lambda s: s.self_s["matrices"]),
    "factorizations.mf_validations": ("count", "lower", lambda s: s.n(
        "factorizations.MatrixFactorization.__init__")),
    "factorizations.morphism_validations": ("count", "lower", lambda s: s.n(
        "factorizations.MfMorphism.__init__")),
    "factorizations.compose_calls": ("count", "lower", lambda s: s.n("factorizations.MfMorphism.compose")),
    "factorizations.validation_s": ("s", "lower", lambda s: s.t(
        "factorizations.MatrixFactorization.__init__", "factorizations.MfMorphism.__init__")),
    "factorizations.self_s": ("s", "lower", lambda s: s.self_s["factorizations"]),
    "tensor_products.mult_tensor_calls": ("count", "lower", lambda s: s.n("tensor_products.mult_tensor")),
    "tensor_products.morph_tensor_calls": ("count", "lower", lambda s: s.n(
        "tensor_products.mult_tensor_morph_left", "tensor_products.mult_tensor_morph_right",
        "tensor_products.mult_tensor_morph_pair")),
    "tensor_products.yoshino_calls": ("count", "lower", lambda s: s.n("tensor_products.yoshino_tensor")),
    "tensor_products.self_s": ("s", "lower", lambda s: s.self_s["tensor_products"]),
    "t_subcategory.e_power_calls": ("count", "lower", lambda s: s.n("t_subcategory.e_power")),
    "t_subcategory.unitor_calls": ("count", "lower", lambda s: s.n(
        "t_subcategory.gamma", "t_subcategory.lambda_", "t_subcategory.rho", "t_subcategory.l_iso")),
    "t_subcategory.witness_calls": ("count", "lower", lambda s: s.n("t_subcategory.find_permutation_witness")),
    "t_subcategory.self_s": ("s", "lower", lambda s: s.self_s["t_subcategory"]),
    "axiom_suites.pentagon_calls": ("count", "lower", lambda s: s.n("axiom_suites.check_pentagon")),
    "axiom_suites.pentagon_s": ("s", "lower", lambda s: s.t("axiom_suites.check_pentagon")),
    "axiom_suites.semiunit_s": ("s", "lower", lambda s: s.t(
        "axiom_suites.check_semiunit_diagram1", "axiom_suites.check_semiunit_diagram2",
        "axiom_suites.check_semiunit_diagram3")),
    "axiom_suites.triangle_s": ("s", "lower", lambda s: s.t("axiom_suites.check_triangle")),
    "axiom_suites.rm_axioms_s": ("s", "lower", lambda s: s.t("axiom_suites.check_right_monoidal_axioms")),
    "axiom_suites.counterexample_s": ("s", "lower", lambda s: s.t(
        "axiom_suites.counterexample_e_not_pseudo_idempotent",
        "axiom_suites.counterexample_mf1_not_semiunital")),
    "axiom_suites.rpm_s": ("s", "lower", lambda s: s.t("axiom_suites.check_right_pseudo_monoidal")),
    "axiom_suites.self_s": ("s", "lower", lambda s: s.self_s["axiom_suites"]),
    "cli.read_s": ("s", "lower", lambda s: s.t("cli._read_factorization")),
    "cli.emit_s": ("s", "lower", lambda s: s.t("factorizations.factorization_to_text", "cli._emit")),
    "cli.bytes_out": ("B", "lower", lambda s: s.extra["bytes_out"]),
    "cli.self_s": ("s", "lower", lambda s: s.self_s["cli"]),
}
