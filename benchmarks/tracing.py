"""Spans and counters around the public functions of the hexflow modules.

The tracer patches the benchmarked package from outside: every module-level
name in `hexflow.*` that refers to a wrapped function is replaced, so a name
brought in with `from .x import f` is traced in every module that calls it.
Nothing under the package changes on disk, and `uninstall` restores the
original objects.

Spans (name, start, end, parent, op id) are kept in memory.  Per-face kernel
calls are too many to record one by one (about 10^6 per Newton solve), so
they are "leaves": their count and summed time are added to the innermost
open span instead.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function, kind); the layer is the module name.
TARGETS = (
    ("cli", "main", "span"),
    ("triangulation", "load_surface", "span"),
    ("conformal", "admissibility", "span"),
    ("conformal", "curvature", "span"),
    ("conformal", "global_jacobian", "span"),
    ("conformal", "curvature_dump", "span"),
    # Wrapped so the line integral of the initial potential is not counted
    # as a line-search trial of the solver or an accepted flow step.
    ("conformal", "potential", "span"),
    ("hexagon", "face_metric", "leaf"),
    ("hexagon", "face_jacobian_closed", "leaf"),
    ("quadrature", "line_integral", "span"),
    ("solve", "velocity", "span"),
    ("solve", "run_flow", "span"),
    ("solve", "solve_prescribed", "span"),
    ("volume", "relative_volume", "span"),
    ("volume", "volume_hessian", "span"),
)


class Span:
    __slots__ = ("name", "parent", "op_id", "start", "end", "leaf_calls", "leaf_time", "nodes", "result")

    def __init__(self, name, parent, op_id):
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.start = self.end = 0.0
        self.leaf_calls = Counter()
        self.leaf_time = Counter()
        self.nodes = 0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; `op_id` tags the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = None
        self._stack: list[Span] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hexflow" or name.startswith("hexflow.")]
        for mod_name, fn_name, kind in TARGETS:
            original = getattr(sys.modules[f"hexflow.{mod_name}"], fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapper = (self._leaf if kind == "leaf" else self._span)(label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _span(self, label, fn):
        tracer = self
        counts_nodes = label == "quadrature.line_integral"
        keeps_result = label in ("solve.run_flow", "solve.solve_prescribed")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(label, stack[-1] if stack else None, tracer.op_id)
            tracer.spans.append(span)
            if counts_nodes:
                integrand = args[0]

                def counted(t):
                    span.nodes += 1
                    return integrand(t)

                args = (counted,) + args[1:]
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keeps_result:
                span.result = result
            return result

        return wrapper

    def _leaf(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            parent.leaf_calls[label] += 1
            if tracer._in_leaf:
                # a leaf inside a leaf: its time belongs to the outer one
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parent.leaf_time[label] += perf_counter() - t0
                tracer._in_leaf = False

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by id): its duration minus the durations of
    its child spans and the summed time of the leaf calls attached to it."""
    covered = Counter()
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.duration
    return {
        id(s): s.duration - covered[id(s)] - sum(s.leaf_time.values()) for s in spans
    }


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Summed counts and self times over the given spans, keyed by the
    per-layer metric names (not yet divided by the number of ops)."""
    own = self_times(spans)
    out = Counter()
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[id(s)]
        for label, n in s.leaf_calls.items():
            out[f"{label}.calls"] += n
        for label, t in s.leaf_time.items():
            out[f"{label}.self_s"] += t
        out["quadrature.nodes"] += s.nodes
        parent = s.parent.name if s.parent is not None else None
        if s.name == "solve.run_flow" and s.result is not None:
            out["solve.steps_accepted"] += len(s.result[1].rows) - 1
        if s.name == "solve.solve_prescribed" and s.result is not None:
            out["solve.newton_iters"] += len(s.result[1].rows) - 1
        if s.name == "conformal.curvature" and parent == "solve.run_flow":
            out["solve.curvature_trials"] += 1
        if s.name == "quadrature.line_integral" and parent == "solve.solve_prescribed":
            out["solve.line_search_trials"] += 1
    # the first curvature call of a flow evaluates the start, not a trial
    out["solve.curvature_trials"] -= out["solve.run_flow.calls"]
    return out
