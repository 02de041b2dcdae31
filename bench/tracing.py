"""Per-layer tracing from outside the library.

The tracer replaces, for the duration of a traced pass, the names that each
lipext module imported from the layer below (for instance
`lipext.monotone.solve_qp`) with wrappers that record a span per call: its
layer, start, end and parent span.  A layer's self time is its span's
duration minus the time covered by its child spans, in CPU time of the
thread.  Spans are folded into per-layer totals as they close, so memory
stays flat however many calls a pass makes.  A target that a module no
longer has is skipped, and its layer reports 0 calls.  A target whose layer
is None is only counted.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (module, attribute, layer): every place a layer is entered on this traffic.
TARGETS = (
    ("lipext.extension", "extend_minimax", None),
    ("lipext.monotone", "solve_qp", "solvers.solve_qp"),
    ("lipext.convex_functions", "solve_qp", "solvers.solve_qp"),
    ("lipext.extension", "minimize_quadratic_over_simplex", "solvers.fw"),
    ("lipext.convex_sets", "minimize_quadratic_over_simplex", "solvers.fw"),
    ("lipext.convex_functions", "minimize_quadratic_over_simplex", "solvers.fw"),
    ("lipext.extension", "resolvent_eval", "monotone.resolvent"),
    ("lipext.extension", "project", "convex_sets.project"),
    ("lipext.extension", "distance", "convex_sets.project"),
    ("lipext.convex_functions", "_polyhedral_conjugate_value", "convex_functions.polyconj"),
    ("lipext.convex_functions", "eval", "convex_functions.eval"),
    ("lipext.extension", "uniform_extend", "extension.query"),
    ("lipext.extension.ExtensionModel", "query", "extension.query"),
)


def _solve_stats(out):
    """(iters, converged) of a solver result, or None if its shape is unknown.

    solve_qp returns (z, {"converged", "iters"}); the Frank-Wolfe solver
    returns a SolveReport with .iters and .converged.
    """
    if hasattr(out, "iters") and hasattr(out, "converged"):
        return int(out.iters), bool(out.converged)
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], dict):
        info = out[1]
        if "iters" in info and "converged" in info:
            return int(info["iters"]), bool(info["converged"])
    return None


def _resolve(path):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class _Frame:
    __slots__ = ("layer", "start", "child_s", "children")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.children = 0


class Tracer:
    """Collects calls, self time and solver counters per layer.

    `stats[layer]` holds calls, self_s, with_children (calls that entered
    another traced layer), and for solvers iters, iters_max and unconverged;
    `target_calls` counts calls per wrapped name.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.target_calls = defaultdict(int)
        self._stack = []
        self._patched = []

    def _enter(self, layer):
        frame = _Frame(layer, time.thread_time())
        if self._stack:
            self._stack[-1].children += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = time.thread_time() - frame.start
        self._stack.pop()
        stats = self.stats[frame.layer]
        stats["calls"] += 1
        stats["self_s"] += duration - frame.child_s
        if frame.children:
            stats["with_children"] += 1
        if self._stack:
            self._stack[-1].child_s += duration

    @contextmanager
    def span(self, layer):
        """Record one span around a block of the benchmark's own code."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, fn, layer, target):
        tracer = self

        if layer is None:

            @wraps(fn)
            def counted(*args, **kwargs):
                tracer.target_calls[target] += 1
                return fn(*args, **kwargs)

            return counted

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.target_calls[target] += 1
            frame = tracer._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            solve = _solve_stats(out) if layer.startswith("solvers.") else None
            if solve is not None:
                stats = tracer.stats[layer]
                stats["iters"] += solve[0]
                stats["iters_max"] = max(stats["iters_max"], solve[0])
                stats["unconverged"] += not solve[1]
            return out

        return traced

    def install(self):
        for path, attr, layer in TARGETS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, f"{path}.{attr}"))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
