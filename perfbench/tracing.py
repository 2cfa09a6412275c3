"""Per-layer spans recorded from outside the program.

In the traced run every function named below is replaced by a wrapper in
every dilink module that binds it (the modules import each other with
``from .x import y``, so one name may live in several modules), and the
listed Digraph methods are replaced on the class.  Per-arc queries such as
has_arc and out_neighbors are never wrapped.  Each wrapper appends one
span (name, unit, id, parent, start, end, attributes) to an in-memory list;
the spans are written out as JSON lines when the run ends, and every
wrapper is removed again.

A span's self time is its duration minus the durations of its child
spans.  The benchmark's root span around each operation holds only its
own glue, so the self times of the layer spans must cover the
operation's wall time; time spent outside every wrapped layer shows up
as a gap between the two.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

FUNCTIONS = {
    "generators": ["gen_random_digraph"],
    "fileio": ["read_digraph"],
    "digraph": ["remove_vertices"],
    "cover": [
        "build_d_cover",
        "verify_d_cover",
        "build_disjoint_ladders",
        "shortest_path_avoiding",
    ],
    "ladder": ["absorb_path"],
    "absorber": [
        "build_type1_absorber",
        "build_type2_absorber",
        "validate_absorber",
        "absorb_paths",
    ],
    "cycles": ["hamilton_cycle", "cut_cycle_segments"],
    "subdivision": ["validate_subdivision", "validate_tiling"],
    "pipeline": ["perfect_tiling", "nh_linked_embed"],
    "expansion": [
        "certify_outexpander_exact",
        "certify_inexpander_exact",
        "certify_survives_deletion",
        "falsify_outexpander_sampled",
    ],
}
DIGRAPH_METHODS = {
    "__init__": "digraph.init",
    "reverse": "digraph.reverse",
    "bool_matrix": "digraph.bool_matrix",
    "in_masks": "digraph.in_masks",
}
ROOT = "bench.op"


def _absorber_attrs(A) -> dict:
    return {
        "pairs": len(A.pairs),
        "vertices": len(A.vertices()),
        "k_ge1": sum(1 for L in A.ladders if L.k >= 1),
    }


# attributes read off a wrapped call's return value
RESULT_ATTRS = {
    "cover.shortest_path_avoiding": lambda q: {"hit": q is not None},
    "absorber.build_type1_absorber": _absorber_attrs,
    "absorber.build_type2_absorber": _absorber_attrs,
    "cycles.hamilton_cycle": lambda C: {"length": len(C)},
    "expansion.falsify_outexpander_sampled": lambda r: {"trials": r.sampled_trials},
}

# span name -> per-layer time metric its self time counts towards
TIME_METRIC = {
    "digraph.init": "digraph.init_s",
    "digraph.remove_vertices": "digraph.remove_vertices_s",
    "digraph.bool_matrix": "digraph.bool_matrix_s",
    "digraph.in_masks": "digraph.in_masks_s",
    "digraph.reverse": "digraph.reverse_s",
    "generators.gen_random_digraph": "generators.gen_random_digraph_s",
    "fileio.read_digraph": "fileio.read_digraph_s",
    "cover.build_d_cover": "cover.build_d_cover_s",
    "cover.verify_d_cover": "cover.verify_d_cover_s",
    "cover.build_disjoint_ladders": "cover.build_disjoint_ladders_s",
    "cover.shortest_path_avoiding": "cover.shortest_path_avoiding_s",
    "ladder.absorb_path": "ladder.absorb_path_s",
    "absorber.build_type1_absorber": "absorber.build_s",
    "absorber.build_type2_absorber": "absorber.build_s",
    "absorber.validate_absorber": "absorber.validate_absorber_s",
    "absorber.absorb_paths": "absorber.absorb_paths_s",
    "cycles.hamilton_cycle": "cycles.hamilton_cycle_s",
    "cycles.cut_cycle_segments": "cycles.cut_cycle_segments_s",
    "subdivision.validate_subdivision": "subdivision.validate_s",
    "subdivision.validate_tiling": "subdivision.validate_s",
    "pipeline.perfect_tiling": "pipeline.self_s",
    "pipeline.nh_linked_embed": "pipeline.self_s",
    "expansion.certify_outexpander_exact": "expansion.certify_out_s",
    "expansion.certify_inexpander_exact": "expansion.certify_in_s",
    "expansion.certify_survives_deletion": "expansion.survives_deletion_s",
    "expansion.falsify_outexpander_sampled": "expansion.falsify_s",
    ROOT: "bench.self_s",
}
# (span name, parent span name) -> metric, where the caller decides the
# layer: the exact enumeration runs inside the in- and deletion
# certifiers, and validate_absorber re-validates its host subdivisions.
CALLER_METRIC = {
    ("expansion.certify_outexpander_exact", "expansion.certify_inexpander_exact"):
        "expansion.certify_in_s",
    ("expansion.certify_outexpander_exact", "expansion.certify_survives_deletion"):
        "expansion.survives_deletion_s",
    ("subdivision.validate_subdivision", "absorber.validate_absorber"):
        "absorber.validate_absorber_s",
}
# layers whose calls happen during set-up get a separate set-up metric
SETUP_SUFFIXED = {"digraph.init_s", "digraph.bool_matrix_s", "digraph.in_masks_s"}

# every per-layer metric the traced run reports, with unit and direction
PER_LAYER = {
    "digraph.init_s": ("s", "lower"),
    "digraph.init_setup_s": ("s", "lower"),
    "digraph.remove_vertices_s": ("s", "lower"),
    "digraph.bool_matrix_s": ("s", "lower"),
    "digraph.bool_matrix_setup_s": ("s", "lower"),
    "digraph.in_masks_s": ("s", "lower"),
    "digraph.in_masks_setup_s": ("s", "lower"),
    "digraph.reverse_s": ("s", "lower"),
    "generators.gen_random_digraph_s": ("s", "lower"),
    "fileio.read_digraph_s": ("s", "lower"),
    "cover.build_d_cover_s": ("s", "lower"),
    "cover.verify_d_cover_s": ("s", "lower"),
    "cover.attempts_per_build": ("count", "lower"),
    "cover.pairs": ("count", "lower"),
    "cover.build_disjoint_ladders_s": ("s", "lower"),
    "cover.shortest_path_avoiding_s": ("s", "lower"),
    "cover.shortest_path_avoiding.calls": ("count", "lower"),
    "cover.shortest_path_avoiding.hit_ratio": ("ratio", "higher"),
    "ladder.absorb_path_s": ("s", "lower"),
    "ladder.absorb_path.calls": ("count", "lower"),
    "ladder.k_ge1": ("count", "higher"),
    "absorber.build_s": ("s", "lower"),
    "absorber.validate_absorber_s": ("s", "lower"),
    "absorber.absorb_paths_s": ("s", "lower"),
    "absorber.builds": ("count", "lower"),
    "absorber.vertices": ("count", "lower"),
    "cycles.hamilton_cycle_s": ("s", "lower"),
    "cycles.hamilton_cycle.length": ("count", "higher"),
    "cycles.cut_cycle_segments.calls": ("count", "lower"),
    "subdivision.validate_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "expansion.certify_out_s": ("s", "lower"),
    "expansion.certify_in_s": ("s", "lower"),
    "expansion.survives_deletion_s": ("s", "lower"),
    "expansion.subsets_per_s": ("1/s", "higher"),
    "expansion.falsify_s": ("s", "lower"),
    "expansion.falsify_trials_per_s": ("1/s", "higher"),
    "bench.self_s": ("s", "lower"),
    "bench.op_median_s": ("s", "lower"),
    "bench.host_tick_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_cost_s": ("s", "lower"),
}

_NO_RESULT = object()


class Recorder:
    """Holds the spans of one run and the wrappers currently installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.unit: str | None = None  # the operation or set-up being traced
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span called name."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        result = _NO_RESULT
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            attrs = RESULT_ATTRS.get(name)
            extra = attrs(result) if attrs and result is not _NO_RESULT else None
            self.spans.append((name, self.unit, sid, parent, start, end, extra))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "dilink" or key.startswith("dilink.")
        ]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"dilink.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cls = sys.modules["dilink.digraph"].Digraph
        for meth, name in DIGRAPH_METHODS.items():
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, unit, sid, parent, start, end, extra in self.spans:
                fh.write(json.dumps({
                    "name": name, "unit": unit, "id": sid, "parent": parent,
                    "start": start, "end": end, "attrs": extra,
                }) + "\n")


def unit_metrics(spans, setup: bool) -> tuple[dict, float]:
    """Per-layer metrics of one operation (or one set-up) and the sum of
    the self times of its layer spans (every span but the root)."""
    name_of = {s[2]: s[0] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, _, _, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    layers_self = 0.0
    absorber = cycle = None
    hits = attempts = 0
    for name, _, sid, parent, start, end, extra in sorted(spans, key=lambda s: s[5]):
        own = end - start - child_time[sid]
        if name != ROOT:
            layers_self += own
        caller = name_of.get(parent)
        key = CALLER_METRIC.get((name, caller), TIME_METRIC[name])
        if setup and key in SETUP_SUFFIXED:
            key = key[:-2] + "_setup_s"
        out[key] += own
        if name == "cover.verify_d_cover" and caller == "cover.build_d_cover":
            attempts += 1
        elif name == "cover.build_d_cover":
            out["covers"] += 1
        elif name == "cover.shortest_path_avoiding":
            out["cover.shortest_path_avoiding.calls"] += 1
            hits += extra["hit"]
        elif name == "ladder.absorb_path":
            out["ladder.absorb_path.calls"] += 1
        elif name.startswith("absorber.build_type"):
            out["absorber.builds"] += 1
            absorber = extra or absorber
        elif name == "cycles.hamilton_cycle":
            cycle = extra or cycle
        elif name == "cycles.cut_cycle_segments":
            out["cycles.cut_cycle_segments.calls"] += 1
        elif name == "expansion.falsify_outexpander_sampled" and extra:
            out["trials"] += extra["trials"]
    if out["covers"]:  # each build_d_cover attempt ends in one verify_d_cover
        out["cover.attempts_per_build"] = attempts / out["covers"]
    if out["cover.shortest_path_avoiding.calls"]:
        out["cover.shortest_path_avoiding.hit_ratio"] = (
            hits / out["cover.shortest_path_avoiding.calls"]
        )
    if absorber:  # the absorber of the last successful build is the one used
        out["cover.pairs"] = absorber["pairs"]
        out["absorber.vertices"] = absorber["vertices"]
        out["ladder.k_ge1"] = absorber["k_ge1"]
    if cycle:
        out["cycles.hamilton_cycle.length"] = cycle["length"]
    if out["expansion.falsify_s"]:
        out["expansion.falsify_trials_per_s"] = out["trials"] / out["expansion.falsify_s"]
    return out, layers_self


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span around a call that does nothing."""
    rec = Recorder()
    rec.unit = "empty"
    start = perf_counter()
    for _ in range(calls):
        rec.call(ROOT, int)
    return (perf_counter() - start) / calls


def per_layer_metrics(recorder: Recorder, op_walls: dict,
                      subsets_per_op: int) -> tuple[dict, list[str]]:
    """Median per operation (per set-up for set-up layers) of every
    per-layer metric, and a list of units whose layer self times leave
    more than 2 % + 5 ms of their wall time unaccounted for.  op_walls
    maps unit -> wall time measured outside the root span.  The caller
    fills in the metrics that need the untraced calls: trace.overhead_s,
    bench.op_median_s and bench.host_tick_s."""
    by_unit: dict[str, list] = defaultdict(list)
    for s in recorder.spans:
        by_unit[s[1]].append(s)
    ops, setups, mismatched = [], [], []
    per_span = span_cost_s()
    for unit, spans in by_unit.items():
        is_setup = unit.startswith("setup")
        metrics, layers_self = unit_metrics(spans, is_setup)
        wall = op_walls[unit]
        if abs(wall - layers_self) > 0.02 * wall + 0.005:
            mismatched.append(
                f"{unit}: layer self times {layers_self:.4f} s, wall {wall:.4f} s")
        metrics["trace.span_cost_s"] = len(spans) * per_span
        enum_s = sum(metrics[k] for k in (
            "expansion.certify_out_s", "expansion.certify_in_s",
            "expansion.survives_deletion_s"))
        if enum_s and subsets_per_op:
            metrics["expansion.subsets_per_s"] = subsets_per_op / enum_s
        (setups if is_setup else ops).append(metrics)
    result = {}
    for name, (unit, _) in PER_LAYER.items():
        pool = setups if name in ("generators.gen_random_digraph_s",
                                  "fileio.read_digraph_s") or "_setup_" in name else ops
        value = statistics.median(m.get(name, 0.0) for m in pool) if pool else 0.0
        result[name] = {"value": value, "unit": unit}
    return result, mismatched
