"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: each hook replaces one
module attribute -- the name the calling module looks up at call time --
with a wrapper that opens a span around the call and feeds counters from
its arguments and result. Nothing inside ``src/`` changes.

A span's self time is its duration minus the part of it covered by child
spans. Every span name ``<layer>.<what>`` reports its summed self time as
the per-layer metric ``<layer>.<what>_s``; the root span of a pass reports
``trace.outside_s``, so the self times of one pass add up to its traced
wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: int
    start: float
    end: float | None = None

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "run": self.run, "start": self.start, "end": self.end}


class Tracer:
    """In-memory span and counter store for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []
        self.missing_layers: set[str] = set()
        self.run = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.run, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def layer_missing(self, layer: str, note: str) -> None:
        self.missing_layers.add(layer)
        self.notes.append(note)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - covered(span.start, span.end, children.get(span.id, ()))
            for span in spans}


# -- hooks -------------------------------------------------------------------

@dataclass(frozen=True)
class Hook:
    target: str            # "<module>.<attribute>" the caller looks up
    layer: str
    span: str | None       # span name; None for a counter-only hook
    observe: object = None  # (tracer, args, kwargs, result) -> None


def _pack(t, args, kwargs, accepted):
    t.add("net.pool_points", len(args[0]))
    t.add("net.net_points", len(accepted))


def _candidates(t, args, kwargs, cand):
    t.counts["param_elim.tensor_mb"] = max(
        t.counts.get("param_elim.tensor_mb", 0.0), cand.projections.nbytes / 1e6)


def _scan(t, args, kwargs, hit):
    t.add("param_elim.scan_calls")
    t.add("param_elim.scan_hits", hit is not None)
    t.add("param_elim.scan_mb", args[0].nbytes / 1e6)


def _design_elim(t, args, kwargs, res):
    t.add("design_elim.elim_queries", res.queries - res.phase1_queries)


def _fw(t, args, kwargs, design):
    t.add("design.fw_calls")
    t.add("design.fw_iterations", design.iterations)
    t.add("design.support_rows", len(design.support))


def _benign(t, args, kwargs, res):
    t.add("compressed_elim.rounds", res.rounds)
    t.add("compressed_elim.queries", res.queries)


def _count(name):
    def observe(t, args, kwargs, result):
        t.add(name)
    return observe


HOOKS = (
    Hook("sparsebandit.cli.main", "cli", "cli.main"),
    Hook("sparsebandit.cli.check_guards", "cli", "cli.guard"),
    Hook("sparsebandit.cli.build_separated_net", "net", "net.build",
         _count("net.build_calls")),
    Hook("sparsebandit.net.sphere_pool", "net", "net.pool"),
    Hook("sparsebandit.net.greedy_pack", "net", "net.pack", _pack),
    Hook("sparsebandit.cli.random_sparse_instance", "model", "model.instance",
         _count("model.instance_builds")),
    Hook("sparsebandit.cli.run_parameter_elimination", "param_elim",
         "param_elim.run"),
    Hook("sparsebandit.param_elim.build_candidate_sets", "param_elim",
         "param_elim.candidates", _candidates),
    Hook("sparsebandit.param_elim.pair_first_violation", "param_elim",
         "param_elim.scan", _scan),
    Hook("sparsebandit.cli.run_design_elimination", "design_elim",
         "design_elim.run", _design_elim),
    Hook("sparsebandit.design_elim.first_prediction_gap", "design_elim",
         "design_elim.gap_scan", _count("design_elim.gap_scan_calls")),
    Hook("sparsebandit.design.frank_wolfe_design", "design", "design.fw", _fw),
    Hook("sparsebandit.compressed_elim.frank_wolfe_design", "design",
         "design.fw", _fw),
    Hook("sparsebandit.design_elim.estimate_parameter", "design",
         "design.estimate", _count("design.estimate_calls")),
    Hook("sparsebandit.sparse_recovery.find_certified_map", "compression",
         "compression.find", _count("compression.find_calls")),
    Hook("sparsebandit.compression.find_certified_map", "compression",
         "compression.find", _count("compression.find_calls")),
    Hook("sparsebandit.compression.build_map", "compression", None,
         _count("compression.maps_tried")),
    Hook("sparsebandit.compressed_elim.run_benign_elimination",
         "compressed_elim", "compressed_elim.run", _benign),
    Hook("sparsebandit.sparse_recovery.run_benign_elimination",
         "compressed_elim", "compressed_elim.run", _benign),
    Hook("sparsebandit.cli.run_general_features", "sparse_recovery",
         "sparse_recovery.run",
         lambda t, a, k, res: t.add("sparse_recovery.psi_rows", res.psi_rows)),
    Hook("sparsebandit.sparse_recovery.collect_representatives",
         "sparse_recovery", "sparse_recovery.collect"),
    Hook("sparsebandit.sparse_recovery.sparse_linf_recover", "sparse_recovery",
         "sparse_recovery.recover"),
    Hook("sparsebandit.sparse_recovery.linprog", "sparse_recovery",
         "sparse_recovery.lp", _count("sparse_recovery.lp_solves")),
    Hook("sparsebandit.param_elim.query", "model", None, _count("model.queries")),
    Hook("sparsebandit.design.query", "model", None, _count("model.queries")),
    Hook("sparsebandit.design_elim.query", "model", None, _count("model.queries")),
    Hook("sparsebandit.compressed_elim.query", "model", None,
         _count("model.queries")),
)

# Per-layer metrics in report order. Counts and ratios are filled from the
# hooks above; every "*_s" name is the summed self time of one span name.
LAYER_METRICS = {
    "net": ("net.build_calls", "net.build_s", "net.pool_s", "net.pack_s",
            "net.pool_points", "net.net_points", "net.accept_ratio"),
    "cli": ("cli.main_s", "cli.guard_s", "cli.net_builds_per_run",
            "cli.instance_builds_per_run"),
    "param_elim": ("param_elim.run_s", "param_elim.candidates_s",
                   "param_elim.tensor_mb", "param_elim.scan_calls",
                   "param_elim.scan_s", "param_elim.scan_us",
                   "param_elim.scan_hits", "param_elim.scan_hit_ratio",
                   "param_elim.scan_mb"),
    "design_elim": ("design_elim.run_s", "design_elim.gap_scan_calls",
                    "design_elim.gap_scan_s", "design_elim.elim_queries"),
    "design": ("design.fw_calls", "design.fw_s", "design.fw_iterations",
               "design.support_rows", "design.estimate_calls",
               "design.estimate_s"),
    "compression": ("compression.find_calls", "compression.maps_tried",
                    "compression.find_s"),
    "compressed_elim": ("compressed_elim.run_s", "compressed_elim.rounds",
                        "compressed_elim.queries"),
    "sparse_recovery": ("sparse_recovery.run_s", "sparse_recovery.collect_s",
                        "sparse_recovery.recover_s", "sparse_recovery.lp_solves",
                        "sparse_recovery.lp_s", "sparse_recovery.lp_ms",
                        "sparse_recovery.psi_rows"),
    "model": ("model.instance_s", "model.queries"),
    "trace": ("trace.wall_s", "trace.outside_s", "trace.overhead_pct",
              "trace.spans"),
}

# Derived metrics that read another layer's counter, with that layer: when
# the source layer is missing they are left out rather than reported as 0.
CROSS_LAYER = {"cli.net_builds_per_run": "net",
               "cli.instance_builds_per_run": "model"}

ROOT_SPAN = "trace.outside"

_UNITS = (("_s", "s"), ("_us", "us"), ("_ms", "ms"), ("_mb", "MB"),
          ("_pct", "%"), ("_ratio", "ratio"), ("_per_run", "1/run"))


def unit(name: str) -> str:
    return next((u for suffix, u in _UNITS if name.endswith(suffix)), "count")


def _resolve(target: str):
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    return module, attr, getattr(module, attr)


def _wrap(tracer: Tracer, hook: Hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(hook.span) if hook.span else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                tracer.end(span)
        if hook.observe is not None and hook.layer not in tracer.missing_layers:
            try:
                hook.observe(tracer, args, kwargs, result)
            except Exception as exc:  # a changed signature or result shape
                tracer.layer_missing(
                    hook.layer, f"hook {hook.target}: counter failed ({exc!r}); "
                                f"layer {hook.layer} metrics omitted")
        return result
    return wrapper


class installed:
    """Context manager that installs ``hooks`` for one traced pass.

    A hook whose target no longer exists (a renamed function or module)
    drops only its layer's metrics and leaves a note; the run goes on.
    """

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self._saved = []

    def __enter__(self):
        for hook in self.hooks:
            try:
                module, attr, fn = _resolve(hook.target)
            except (ImportError, AttributeError) as exc:
                self.tracer.layer_missing(
                    hook.layer, f"hook {hook.target} not found ({exc}); "
                                f"layer {hook.layer} metrics omitted")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(self.tracer, hook, fn))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cli_points: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``cli_points`` is the number of grid points the pass sent through the
    CLI, the denominator of the per-run ratios.
    """
    values = dict(tracer.counts)
    for span, own in zip(tracer.spans, self_times(tracer.spans).values()):
        key = span.name + "_s"
        values[key] = values.get(key, 0.0) + own
    root = tracer.spans[0]
    values["trace.wall_s"] = root.end - root.start
    values["trace.spans"] = len(tracer.spans)
    values["net.accept_ratio"] = _ratio(values.get("net.net_points", 0),
                                        values.get("net.pool_points", 0))
    values["param_elim.scan_us"] = 1e6 * _ratio(
        values.get("param_elim.scan_s", 0.0), values.get("param_elim.scan_calls", 0))
    values["param_elim.scan_hit_ratio"] = _ratio(
        values.get("param_elim.scan_hits", 0), values.get("param_elim.scan_calls", 0))
    values["sparse_recovery.lp_ms"] = 1e3 * _ratio(
        values.get("sparse_recovery.lp_s", 0.0),
        values.get("sparse_recovery.lp_solves", 0))
    values["cli.net_builds_per_run"] = _ratio(values.get("net.build_calls", 0),
                                              cli_points)
    values["cli.instance_builds_per_run"] = _ratio(
        values.get("model.instance_builds", 0), cli_points)

    out = {}
    for layer, names in LAYER_METRICS.items():
        if layer in tracer.missing_layers:
            continue
        for name in names:
            if (name != "trace.overhead_pct"
                    and CROSS_LAYER.get(name) not in tracer.missing_layers):
                out[name] = float(values.get(name, 0))
    return out
