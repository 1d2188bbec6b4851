"""Outside-in tracer for the lieconserve package.

Nothing inside the program is changed.  ``Tracer.install`` rebinds each
traced public function, in every ``lieconserve.*`` module namespace that
holds it, to a wrapper that times the call.  Self time is a span's duration
minus the time its child spans cover.  Hot functions (the tree constructors,
``diff``, per-node ``evaluate``) are only aggregated; every other call is
kept as a span (request, id, parent, name, start, end) in memory and
written out by ``write_spans`` when the run ends.

Modules are taken from ``sys.modules`` by name: the attribute
``lieconserve.expr.evaluate`` is the *function*, because ``expr/__init__``
re-exports it over the submodule.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, hot).  "Class.method" wraps a method in place;
# a bare class name wraps its constructor.
TARGETS = [
    ("expr.tree", "normalize", True),
    ("expr.tree", "add", True),
    ("expr.tree", "mul", True),
    ("expr.tree", "power", True),
    ("expr.tree", "neg", True),
    ("expr.tree", "substitute", True),
    ("expr.tree", "to_text", True),
    ("expr.derive", "diff", True),
    ("expr.parser", "parse", False),
    ("expr.evaluate", "is_zero", False),
    ("expr.evaluate", "evaluate", True),
    ("expr.evaluate", "instantiate", False),
    ("jet_calculus", "total_derivative", False),
    ("jet_calculus", "on_solution_reduce", False),
    ("jet_calculus", "variational_derivative", False),
    ("jet_calculus", "bind_adjoint_field", False),
    ("symmetry", "determining_residual_pair", False),
    ("symmetry", "determining_residual_generic", False),
    ("symmetry", "prolongation_residual", False),
    ("adjointness", "classify", False),
    ("adjointness", "verify_substitution", False),
    ("conservation", "build_vector_self", False),
    ("conservation", "divergence_residual", False),
    ("characteristics", "CharacteristicSolution", False),
    ("characteristics", "shock_time", False),
    ("characteristics", "CharacteristicSolution.solve_many", False),
    ("characteristics", "conserved_integral", False),
    ("characteristics", "verify_law", False),
]

PACKAGE = "lieconserve"


def count_nodes(e) -> int:
    """Tree size, walked here so that no traced program code runs."""
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        for attr in ("terms", "factors", "args"):
            children = getattr(node, attr, None)
            if children is not None:
                stack.extend(children)
                break
        else:
            for attr in ("base", "operand"):
                child = getattr(node, attr, None)
                if child is not None:
                    stack.append(child)
    return n


def _on_is_zero(counters: Counter, args, result) -> None:
    if result.structural:
        counters["expr.evaluate.is_zero.structural"] += 1
    elif not result.zero:
        counters["expr.evaluate.is_zero.nonzero"] += 1
    else:
        counters["expr.evaluate.is_zero.sampled_zero"] += 1
    counters["expr.evaluate.is_zero.samples_used"] += result.samples_used
    counters["expr.evaluate.is_zero.samples_skipped"] += result.samples_skipped


def _on_residual(counters: Counter, args, result) -> None:
    exprs = result if isinstance(result, tuple) else (result,)
    counters["expr.tree.nodes_out"] += sum(count_nodes(e) for e in exprs)


def _on_vector(counters: Counter, args, result) -> None:
    counters["expr.tree.nodes_out"] += count_nodes(result.c0) + count_nodes(result.c1)


def _on_divergence(counters: Counter, args, result) -> None:
    counters["expr.tree.nodes_out"] += count_nodes(result.residual)


def _on_solve_many(counters: Counter, args, result) -> None:
    counters["characteristics.solve_many.points"] += len(result[0])


def _on_verify_law(counters: Counter, args, result) -> None:
    counters["characteristics.verify_law." + result.mode.replace("-", "_")] += 1


HOOKS = {
    "expr.evaluate.is_zero": _on_is_zero,
    "symmetry.determining_residual_pair": _on_residual,
    "symmetry.determining_residual_generic": _on_residual,
    "symmetry.prolongation_residual": _on_residual,
    "conservation.build_vector_self": _on_vector,
    "conservation.divergence_residual": _on_divergence,
    "characteristics.solve_many": _on_solve_many,
    "characteristics.verify_law": _on_verify_law,
}


class Tracer:
    """Span recorder; records only between ``begin`` and ``end`` of a request."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.enabled = False
        self.request = -1
        self._stack: list[list] = []         # [child_s, id for children]
        self._next_id = 0

    def _wrap(self, name: str, fn, hot: bool):
        stats = self.stats.setdefault(name, [0, 0.0])
        hook = HOOKS.get(name)
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if hot:
                span_id = parent
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans.append((tracer.request, span_id, parent, name, start, end))
            if hook is not None:
                h0 = clock()
                hook(counters, args, result)
                if stack:                    # keep hook time out of self times
                    stack[-1][0] += clock() - h0
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for modname, attr, hot in TARGETS:
            module = sys.modules[PACKAGE + "." + modname]
            name = modname + "." + attr.split(".")[-1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], hot))
                continue
            original = module.__dict__[attr]
            if isinstance(original, type):
                original.__init__ = self._wrap(name, original.__init__, hot)
                continue
            wrapper = self._wrap(name, original, hot)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def begin(self, request: int) -> None:
        self.request = request
        self.enabled = True

    def end(self) -> None:
        self.enabled = False

    def summary(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for request, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": request, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
