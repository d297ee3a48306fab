"""Per-layer tracing of clusterquake, installed from outside the package.

Tracer.install() replaces public functions and methods of each module
with wrappers, in every clusterquake module namespace that binds them.
A span wrapper records (name, start, end, parent) in CPU nanoseconds;
a count wrapper only counts calls, per calling span, for the hot
single-step functions.  Spans stay in memory until Tracer.dump().
derive() turns spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (layer, qualified name): spans, with an optional measure of the result.
SPANS = [
    ("fpoly", "mutate_F"),
    ("intmat", "inverse_unimodular"),
    ("patterns", "enumerate_pattern"),
    ("patterns", "ExchangePattern.fan"),
    ("patterns", "ExchangePattern.based_matrices"),
    ("patterns", "ExchangePattern.route"),
    ("points", "locate_cone"),
    ("points", "tropical_transport"),
    ("points", "positive_transport"),
    ("points", "log_transport"),
    ("earthquake", "quake"),
    ("earthquake", "quake_log"),
    ("earthquake", "inverse_quake"),
    ("earthquake", "dquake"),
    ("earthquake", "u_coords"),
    ("earthquake", "limit_L"),
    ("earthquake", "quake_multiplier"),
    ("horocycle", "conjugacy_residual"),
    ("horocycle", "lift"),
    ("estimators", "EarthquakeTransformer.transform"),
    ("estimators", "EarthquakeTransformer.inverse_transform"),
    ("estimators", "EarthquakeTransformer.predict"),
]
COUNTS = [
    ("seeds", "ExchangeMatrix.mutate"),
    ("seeds", "ExchangeMatrix.relabel"),
    ("intmat", "matvec"),
    ("_steps", "trop_mutation"),
    ("_steps", "pos_mutation"),
    ("_steps", "log_mutation"),
    ("_steps", "jac_mutation"),
    ("_steps", "apply_perm"),
]
# Units of work per call, read from the arguments or the result.
UNITS = {
    "patterns.enumerate_pattern": lambda args, result: len(result),
    "patterns.fan": lambda args, result: len(result),
    "estimators.transform": lambda args, result: len(result),
    "estimators.inverse_transform": lambda args, result: len(result),
    "estimators.predict": lambda args, result: len(result),
}
TRANSPORTS = ("points.tropical_transport", "points.positive_transport",
              "points.log_transport")
EQ_OPS = ("quake", "inverse_quake", "dquake", "u_coords", "limit_L",
          "quake_multiplier")
CLI_COMMANDS = ("cartan", "quake", "inverse", "fan", "plot_grid", "verify")

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER = [
    ("seeds.mutate_calls", "count", "lower"),
    ("seeds.relabel_calls", "count", "lower"),
    ("fpoly.mutate_F_calls", "count", "lower"),
    ("fpoly.mutate_F_s", "s", "lower"),
    ("intmat.inverse_unimodular_calls", "count", "lower"),
    ("intmat.inverse_unimodular_s", "s", "lower"),
    ("intmat.matvec_calls", "count", "lower"),
    ("patterns.enumerate_pattern_s", "s", "lower"),
    ("patterns.fan_s", "s", "lower"),
    ("patterns.based_matrices_s", "s", "lower"),
    ("patterns.route_calls", "count", "lower"),
    ("patterns.route_s", "s", "lower"),
    ("patterns.labeled_vertices", "count", "lower"),
    ("patterns.cones", "count", "higher"),
    ("patterns.cone_yield", "ratio", "higher"),
    ("steps.trop_steps", "count", "lower"),
    ("steps.pos_steps", "count", "lower"),
    ("steps.log_steps", "count", "lower"),
    ("steps.jac_steps", "count", "lower"),
    ("steps.perm_steps", "count", "lower"),
    ("steps.steps_per_transport", "ratio", "lower"),
    ("points.locate_cone_calls", "count", "lower"),
    ("points.locate_cone_s", "s", "lower"),
    ("points.locate_scan_len", "count", "lower"),
    ("points.transport_s", "s", "lower"),
    *[(f"earthquake.{op}{suffix}", unit, "lower") for op in EQ_OPS
      for suffix, unit in (("_s", "s"), ("_p50_ms", "ms"), ("_p90_ms", "ms"))],
    ("earthquake.inverse_charts_tried", "count", "lower"),
    *[(f"horocycle.{op}{suffix}", unit, "lower")
      for op in ("conjugacy_residual", "lift")
      for suffix, unit in (("_s", "s"), ("_p50_ms", "ms"), ("_p90_ms", "ms"))],
    ("estimators.transform_rows_per_s", "1/s", "higher"),
    ("estimators.inverse_transform_rows_per_s", "1/s", "higher"),
    ("estimators.predict_rows_per_s", "1/s", "higher"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *[(f"cli.{cmd}_s", "s", "lower") for cmd in CLI_COMMANDS],
    ("cli.child_rss_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.calls = Counter()  # name id -> calls (count wrappers only)
        self.calls_under = Counter()  # (parent name id, name id) -> calls
        self.units = Counter()  # name -> units of work
        self.active = True  # False while the benchmark checks outputs

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, name):
        nid = self._id(name)
        units = UNITS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if units is not None:
                self.units[name] += units(args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        nid = self._id(name)
        calls, under = self.calls, self.calls_under
        names, stack = self.span_name, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if stack:
                under[names[stack[-1]], nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every listed function wherever a clusterquake module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "clusterquake" or key.startswith("clusterquake.")]
        for targets, make in ((SPANS, self._span_wrapper),
                              (COUNTS, self._count_wrapper)):
            for layer, qualname in targets:
                module = sys.modules[f"clusterquake.{layer}"]
                name = f"{layer.lstrip('_')}.{qualname.split('.')[-1]}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, make(cls.__dict__[attr], name))
                    continue
                original = getattr(module, qualname)
                wrapper = make(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path):
        """Write spans, counts and units as one JSON document."""
        doc = {
            "names": self.names,
            "spans": {"name": self.span_name.tolist(),
                      "parent": self.span_parent.tolist(),
                      "start_ns": self.span_start.tolist(),
                      "end_ns": self.span_end.tolist()},
            "calls": {self.names[k]: v for k, v in self.calls.items()},
            "calls_under": [[self.names[p], self.names[c], v]
                            for (p, c), v in self.calls_under.items()],
            "units": dict(self.units),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _pct(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def derive(tracer):
    """Per-layer metrics (all except the cli.* and trace.* ones) from a run."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    durations = {}
    child_time = Counter()  # span index -> seconds covered by direct children
    parent_of = Counter()  # (parent name id, name id) -> spans
    names, parents = tracer.span_name, tracer.span_parent
    for idx in range(len(names)):
        dur = (tracer.span_end[idx] - tracer.span_start[idx]) / 1e9
        durations.setdefault(names[idx], []).append(dur)
        p = parents[idx]
        if p >= 0:
            child_time[p] += dur
            parent_of[names[p], names[idx]] += 1

    def calls(name):
        if name in ids and ids[name] in tracer.calls:
            return tracer.calls[ids[name]]
        return len(durations.get(ids.get(name), ()))

    def total(name):
        return sum(durations.get(ids.get(name), ()))

    def under(parent, child):
        p, c = ids.get(parent), ids.get(child)
        return tracer.calls_under.get((p, c), 0) + parent_of.get((p, c), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    enum_id = ids.get("patterns.enumerate_pattern")
    enum_self = sum(
        (tracer.span_end[i] - tracer.span_start[i]) / 1e9 - child_time[i]
        for i in range(len(names)) if names[i] == enum_id)
    steps = {key: calls(f"steps.{fn}") for key, fn in (
        ("trop", "trop_mutation"), ("pos", "pos_mutation"),
        ("log", "log_mutation"), ("jac", "jac_mutation"),
        ("perm", "apply_perm"))}
    in_transport = sum(under(t, f"steps.{fn}") for t in TRANSPORTS
                       for fn in ("trop_mutation", "pos_mutation",
                                  "log_mutation", "apply_perm"))
    labeled = tracer.units["patterns.enumerate_pattern"]
    cones = tracer.units["patterns.fan"]
    out = {
        "seeds.mutate_calls": calls("seeds.mutate"),
        "seeds.relabel_calls": calls("seeds.relabel"),
        "fpoly.mutate_F_calls": calls("fpoly.mutate_F"),
        "fpoly.mutate_F_s": total("fpoly.mutate_F"),
        "intmat.inverse_unimodular_calls": calls("intmat.inverse_unimodular"),
        "intmat.inverse_unimodular_s": total("intmat.inverse_unimodular"),
        "intmat.matvec_calls": calls("intmat.matvec"),
        "patterns.enumerate_pattern_s": enum_self,
        "patterns.fan_s": total("patterns.fan"),
        "patterns.based_matrices_s": total("patterns.based_matrices"),
        "patterns.route_calls": calls("patterns.route"),
        "patterns.route_s": total("patterns.route"),
        "patterns.labeled_vertices": labeled,
        "patterns.cones": cones,
        "patterns.cone_yield": ratio(cones, labeled),
        **{f"steps.{key}_steps": value for key, value in steps.items()},
        "steps.steps_per_transport": ratio(
            in_transport, sum(calls(t) for t in TRANSPORTS)),
        "points.locate_cone_calls": calls("points.locate_cone"),
        "points.locate_cone_s": total("points.locate_cone"),
        "points.locate_scan_len": ratio(
            under("points.locate_cone", "intmat.matvec"),
            calls("points.locate_cone")),
        "points.transport_s": sum(total(t) for t in TRANSPORTS),
        "earthquake.inverse_charts_tried": ratio(
            under("earthquake.inverse_quake", "points.positive_transport") / 2,
            calls("earthquake.inverse_quake")),
    }
    for layer, ops in (("earthquake", EQ_OPS),
                       ("horocycle", ("conjugacy_residual", "lift"))):
        for op in ops:
            values = sorted(durations.get(ids.get(f"{layer}.{op}"), ()))
            out[f"{layer}.{op}_s"] = sum(values)
            out[f"{layer}.{op}_p50_ms"] = 1000 * _pct(values, 50)
            out[f"{layer}.{op}_p90_ms"] = 1000 * _pct(values, 90)
    for op in ("transform", "inverse_transform", "predict"):
        out[f"estimators.{op}_rows_per_s"] = ratio(
            tracer.units[f"estimators.{op}"], total(f"estimators.{op}"))
    return out
