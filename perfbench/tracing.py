"""Per-layer tracing from outside the program.

The layers are the package's modules.  ``Tracer.install`` wraps each listed
public function at every name its callers use (``surface.cells_of`` is also
``dynamics.cells_of`` and ``classifier.cells_of``), so calls between modules
are seen.  Span functions record a span (name, parent span, op id, start,
end) in memory; count-only functions and the ExtRat operators just bump a
counter.  Self time is computed at exit as span time minus the time of the
direct child spans, and the spans are written to a file then.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

SPANS = (
    ("cli", "main"),
    ("classifier", "classify"),
    ("classifier", "index_shift_cf"),
    ("dynamics", "greedy_path"),
    ("dynamics", "trop_vieta"),
    ("surface", "cells_of"),
    ("surface", "on_skeleton"),
    ("surface", "lift_from_plane"),
    ("scalars", "ext_min"),
    ("hyperbolic", "partial_orbit_skeleton"),
    ("hyperbolic", "partial_orbit_boundary"),
    ("hyperbolic", "partition_stats"),
    ("hyperbolic", "order_isomorphism_check"),
    ("arithmetic", "enumerate_zp_points"),
)
COUNTED = (("hyperbolic", "skeleton_direction_act"), ("scalars", "p_adic_valuation"))
EXTRAT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__neg__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

# name -> (unit, better); the order is the report order.
METRICS: dict[str, tuple[str, str]] = {}
for _mod, _fn in SPANS:
    METRICS[f"{_mod}.{_fn}.calls"] = ("count", "lower")
    METRICS[f"{_mod}.{_fn}.self_s"] = ("s", "lower")
METRICS.update({
    "dynamics.greedy_steps": ("count", "lower"),
    "surface.cells_of_per_step": ("calls/step", "lower"),
    "scalars.ExtRat.ops": ("count", "lower"),
    "hyperbolic.skeleton_direction_act.calls": ("count", "lower"),
    "hyperbolic.orbit_points_built": ("count", "lower"),
    "hyperbolic.orbit_reuse_ratio": ("ratio", "higher"),
    "arithmetic.zp_points_found": ("count", "higher"),
    "scalars.p_adic_valuation.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tropmarkov" or name.startswith("tropmarkov."))]


class Tracer:
    """Spans and counters for one traced run; ``op_id`` tags spans with the op."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in SPANS] + ["op"]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.orbit_by_op: dict[int, list[int]] = {}  # op -> [points built, largest orbit]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def begin(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def end(self, idx: int):
        self.span_end[idx] = perf_counter_ns()
        self.stack.pop()

    def run_op(self, op_id: int, fn, arg):
        """Run one benchmark op under a root span tagged with its id."""
        self.op_id = op_id
        idx = self.begin(len(self.names) - 1)
        try:
            return fn(arg)
        finally:
            self.end(idx)

    def _span_wrapper(self, name_id: int, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:  # inside an op; the loop's own output comparisons do not count
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name: str):
        if name == "dynamics.greedy_path":
            def after(trace):
                self.counts["dynamics.greedy_steps"] += trace.steps
            return after
        if name in ("hyperbolic.partial_orbit_skeleton", "hyperbolic.partial_orbit_boundary"):
            def after(points):
                entry = self.orbit_by_op.setdefault(self.op_id, [0, 0])
                entry[0] += len(points)
                entry[1] = max(entry[1], len(points))
            return after
        if name == "arithmetic.enumerate_zp_points":
            def after(points):
                self.counts["arithmetic.zp_points_found"] += len(points)
            return after
        return None

    # -- installing the wrappers --------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for name_id, (mod, fn) in enumerate(SPANS):
            original = getattr(sys.modules[f"tropmarkov.{mod}"], fn)
            name = f"{mod}.{fn}"
            self._replace_everywhere(original, self._span_wrapper(name_id, original, self._after(name)))
        for mod, fn in COUNTED:
            original = getattr(sys.modules[f"tropmarkov.{mod}"], fn)
            self._replace_everywhere(original, self._count_wrapper(f"{mod}.{fn}.calls", original))
        ext_rat = sys.modules["tropmarkov.scalars"].ExtRat
        for op in EXTRAT_OPS:
            original = ext_rat.__dict__[op]
            self._restore.append((ext_rat, op, original))
            setattr(ext_rat, op, self._count_wrapper("scalars.ExtRat.ops", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, base of the ratio or '')."""
        n_spans = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n_spans)]
        child = [0] * n_spans  # time covered by each span's direct children
        for idx in range(n_spans):
            if self.span_parent[idx] >= 0:
                child[self.span_parent[idx]] += durations[idx]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for idx in range(n_spans):
            calls[self.span_name[idx]] += 1
            self_ns[self.span_name[idx]] += durations[idx] - child[idx]
        out: dict[str, tuple[float, str]] = {}
        for name_id, (mod, fn) in enumerate(SPANS):
            out[f"{mod}.{fn}.calls"] = (calls[name_id], "")
            out[f"{mod}.{fn}.self_s"] = (self_ns[name_id] / 1e9, "")
        steps = self.counts["dynamics.greedy_steps"]
        cells_calls = out["surface.cells_of.calls"][0]
        built = sum(v[0] for v in self.orbit_by_op.values())
        distinct = sum(v[1] for v in self.orbit_by_op.values())
        out.update({
            "dynamics.greedy_steps": (steps, ""),
            "surface.cells_of_per_step": (cells_calls / steps if steps else 0.0,
                                          f"{cells_calls} cells_of calls / {steps} greedy steps"),
            "scalars.ExtRat.ops": (self.counts["scalars.ExtRat.ops"], ""),
            "hyperbolic.skeleton_direction_act.calls":
                (self.counts["hyperbolic.skeleton_direction_act.calls"], ""),
            "hyperbolic.orbit_points_built": (built, ""),
            "hyperbolic.orbit_reuse_ratio": (distinct / built if built else 0.0,
                                             f"{distinct} points at max depth / {built} points built"),
            "arithmetic.zp_points_found": (self.counts["arithmetic.zp_points_found"], ""),
            "scalars.p_adic_valuation.calls": (self.counts["scalars.p_adic_valuation.calls"], ""),
            "trace.overhead_ratio": (overhead_ratio, "traced op time / untraced op time, same ops"),
        })
        return out

    def write_spans(self, path):
        """Write every span, column by column, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            }, fh, separators=(",", ":"))
