"""Span tracing of magiclab from outside the package.

``Tracer.install`` wraps every public module-level function of the traced
modules, wherever it is bound in any loaded ``magiclab`` namespace (the
package re-exports most of them, and modules import each other's functions
by name).  ``Tracer.uninstall`` puts every original binding back.

Spans stay in memory as ``(name, start, end, parent, command)`` rows; a
span's self time is its duration minus the durations of its direct
children.  Calls nest strictly in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

PACKAGE = "magiclab"
LAYERS = ("cli", "graphs", "labelings", "bipartite", "tripartite", "families", "arrays", "oracle")

ROOT = "bench.command"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.command = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def public_functions(self) -> dict[object, str]:
        """Original function object -> ``layer.name`` for every traced function."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    found[value] = f"{layer}.{name}"
        return found

    def install(self) -> int:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = self.public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return len(self._patched)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, None)
            return result

        return wrapper

    # -- command roots ------------------------------------------------------

    def begin(self, command: int) -> None:
        self.command = command
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, command])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return totals

    def calls_by_name(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        return calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, command in self.spans:
                out.write(json.dumps([name, start, end, parent, command]) + "\n")


# ---------------------------------------------------------------------------
# Counters taken at layer boundaries, from arguments and results only

_GRAPH_CONSTRUCTORS = {
    "graphs.build_from_ast", "graphs.parse_graph_spec", "graphs.build_complete_multipartite",
    "graphs.build_cycle", "graphs.disjoint_union", "graphs.lex_blowup",
    "graphs.read_adjacency_file",
}


def _outermost(tracer: Tracer, names) -> bool:
    """True when no enclosing open span belongs to ``names``."""
    return not any(tracer.spans[i][0] in names for i in tracer.stack)


def _graph_built(tracer, args, kwargs, result, exc):
    if exc is None and _outermost(tracer, _GRAPH_CONSTRUCTORS):
        tracer.counts["graphs.build_calls"] += 1
        tracer.counts["graphs.adjacency_entries"] += 2 * getattr(result, "edge_count", 0)


def _verified(tracer, args, kwargs, result, exc):
    if exc is None:
        labeling = args[1] if len(args) > 1 else kwargs.get("labeling")
        tracer.counts["labelings.verify_calls"] += 1
        tracer.counts["labelings.verified_vertices"] += len(getattr(labeling, "labels", ()))


def _array_built(tracer, args, kwargs, result, exc):
    if exc is None and result is not None:
        tracer.counts["arrays.entries_built"] += result.rows * result.cols


def _oracle_result(tracer, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "BudgetExceededError":
            tracer.counts["oracle.budget_exceeded"] += 1
        return
    # levels 0..theta for an exact answer, 0..max_excess (= lower - 1) when exhausted
    tracer.counts["oracle.excess_levels"] += result.lower + (1 if result.exact else 0)


_OBSERVERS = {name: _graph_built for name in _GRAPH_CONSTRUCTORS}
_OBSERVERS.update({
    "labelings.verify_s_magic": _verified,
    "labelings.partite_sums_check": _verified,
    "arrays.qmr": _array_built,
    "arrays.kotzig_array": _array_built,
    "oracle.oracle_theta_multipartite": _oracle_result,
    "oracle.oracle_theta_general": _oracle_result,
})
