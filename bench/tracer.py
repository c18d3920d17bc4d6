"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of vertereg's modules, and the names one
module imports from another, so that every call records a span: name,
start, end, the enclosing span and the benchmark operation it belongs to.
Counts ride on the spans of the calls that do the work. Everything stays in
memory until the run ends; then the spans go to a JSON-lines file and the
per-layer metrics are derived from them.

Only traced runs install the wrappers. Untraced runs, which give the
end-to-end metrics, call the unmodified package.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# (module, attribute, span name). Where two modules hold the same function
# (one imported it from the other), both names get the same wrapper.
WRAPPED = [
    ("cloud", "depth_to_cloud", "cloud.depth_to_cloud"),
    ("register", "depth_to_cloud", "cloud.depth_to_cloud"),
    ("cloud", "largest_component", "cloud.largest_component"),
    ("register", "largest_component", "cloud.largest_component"),
    ("cloud", "NearestNeighborIndex.__init__", "cloud.index_build"),
    ("cloud", "NearestNeighborIndex.query", "cloud.query"),
    ("geom", "umeyama", "geom.umeyama"),
    ("register", "umeyama", "geom.umeyama"),
    ("track", "umeyama", "geom.umeyama"),
    ("geom", "RigidTransform.apply", "geom.apply"),
    ("register", "register_initial_frame", "register.register_initial_frame"),
    ("register", "general_alignment", "register.general_alignment"),
    ("register", "piecewise_refine", "register.piecewise_refine"),
    ("register", "process_interaction_frame", "register.process_interaction_frame"),
    ("register", "update_pose", "register.update_pose"),
    ("register", "run_recording", "register.run_recording"),
    ("metrics", "run_recording", "register.run_recording"),
    ("track", "track_pose", "track.track_pose"),
    ("cli", "track_pose", "track.track_pose"),
    ("track", "PoseKalman.step", "track.kalman"),
    ("stream", "encode_packet", "stream.encode_packet"),
    ("sim", "Recording.frame", "sim.frame"),
    ("sim", "render_depth", "maskgen.render_depth"),
    ("maskgen", "render_depth", "maskgen.render_depth"),
    ("sim", "smooth_mask", "maskgen.smooth_mask"),
    ("maskgen", "smooth_mask", "maskgen.smooth_mask"),
    ("formats", "write_depth", "formats.write_depth"),
    ("formats", "write_mask", "formats.write_mask"),
    ("formats", "LoadedRecording.frame", "formats.read_frame"),
    ("formats", "LoadedRecording.__init__", "formats.load_recording"),
    ("formats", "load_model", "formats.load_model"),
    ("metrics", "tre", "metrics.tre"),
    ("metrics", "perforation", "metrics.perforation"),
]

# Phases of a run. Per-unit layer metrics count only the measured phase.
MEASURE = "measure"


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        # span: [id, parent id, phase, op, name, start, end, extra dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.phase = "setup"
        self.op = -1
        self.op_names: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, self.phase, self.op, name,
                time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """Span around one of the benchmark's own operations."""
        if op is not None:
            self.op = op
            self.op_names[op] = name
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _annotate(span, name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every entry of WRAPPED in the given {short name: module}."""
        wrappers: dict[int, object] = {}
        for mod_name, attr, span_name in WRAPPED:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = self._wrap(fn, span_name)
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, wrappers[key])

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, phase, op, name, t0, t1, extra in self.spans:
                doc = {"id": sid, "parent": parent, "phase": phase, "op": op,
                       "name": name, "start": t0, "end": t1}
                if extra:
                    doc.update(extra)
                f.write(json.dumps(doc) + "\n")


def _annotate(span: list, name: str, args, result) -> None:
    """Attach the counts a call's arguments and result carry."""
    if name == "cloud.query":
        span[7] = {"points": len(args[1]), "pairs": len(result[0])}
    elif name == "register.process_interaction_frame":
        tracks = result.vertebrae.values()
        span[7] = {"updates": sum(1 for t in tracks if t.updated),
                   "holds": sum(1 for t in tracks if not t.updated and not t.frozen)}


# (name, unit) of every per-layer metric, in BENCHMARK.json's order; how each
# value is formed is in layer_metrics and in README.md
PER_LAYER = [
    ("cloud.query_ms", "ms"),
    ("cloud.query_calls", "count"),
    ("cloud.query_points", "count"),
    ("cloud.match_ratio", "ratio"),
    ("cloud.index_build_ms", "ms"),
    ("cloud.depth_to_cloud_ms", "ms"),
    ("cloud.largest_component_ms", "ms"),
    ("geom.umeyama_ms", "ms"),
    ("geom.umeyama_calls", "count"),
    ("geom.apply_ms", "ms"),
    ("register.general_iters", "count"),
    ("register.piecewise_iters", "count"),
    ("register.updates", "count"),
    ("register.holds", "count"),
    ("register.self_ms", "ms"),
    ("track.track_pose_ms", "ms"),
    ("track.kalman_ms", "ms"),
    ("stream.encode_ms", "ms"),
    ("sim.frame_ms", "ms"),
    ("maskgen.render_depth_ms", "ms"),
    ("maskgen.smooth_mask_ms", "ms"),
    ("formats.write_frame_ms", "ms"),
    ("formats.read_frame_ms", "ms"),
    ("formats.load_models_ms", "ms"),
    ("formats.recording_loads", "count"),
    ("metrics.tre_ms", "ms"),
    ("metrics.perforation_ms", "ms"),
    ("cli.simulate_s", "s"),
    ("cli.register_s", "s"),
    ("cli.track_s", "s"),
    ("cli.evaluate_s", "s"),
    ("cli.ablate_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("traced_run_cpu_s", "s"),
    ("wall.run_s", "s"),
    ("wall.frame_ms_p50", "ms"),
    ("wall.frame_ms_p95", "ms"),
    ("wall.first_pose_ms_p50", "ms"),
    ("host.steal_pct", "%"),
]

# metric -> span whose time in the measured unit operations is summed per unit
_PER_UNIT_MS = {
    "cloud.query_ms": "cloud.query",
    "cloud.index_build_ms": "cloud.index_build",
    "cloud.depth_to_cloud_ms": "cloud.depth_to_cloud",
    "cloud.largest_component_ms": "cloud.largest_component",
    "geom.umeyama_ms": "geom.umeyama",
    "geom.apply_ms": "geom.apply",
    "track.track_pose_ms": "track.track_pose",
    "track.kalman_ms": "track.kalman",
    "stream.encode_ms": "stream.encode_packet",
    "metrics.tre_ms": "metrics.tre",
    "metrics.perforation_ms": "metrics.perforation",
}

# metric -> span whose mean duration per call over the whole run is reported
_PER_CALL_MS = {
    "sim.frame_ms": "sim.frame",
    "maskgen.render_depth_ms": "maskgen.render_depth",
    "maskgen.smooth_mask_ms": "maskgen.smooth_mask",
    "formats.read_frame_ms": "formats.read_frame",
}


def _dur(s: list) -> float:
    return s[6] - s[5]


def _total(spans: list[list], name: str) -> float:
    return sum(_dur(s) for s in spans if s[4] == name)


def _calls(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[4] == name)


def _self_times(spans: list[list]) -> dict[str, float]:
    """Seconds each span name spent outside its child spans."""
    child: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += _dur(s)
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        own[s[4]] += _dur(s) - child[s[0]]
    return own


def layer_metrics(tracer: Tracer, units: int, unit_ops: set[str],
                  run_values: dict[str, float]) -> dict[str, dict]:
    """Per-layer metrics of a traced run, in PER_LAYER order.

    Per-unit values sum the spans of the measured operations named in
    ``unit_ops`` and divide by ``units``. ``run_values`` holds the metrics
    the run measured itself (CPU, wall-clock and steal figures).
    """
    spans = tracer.spans
    measured = [s for s in spans if s[2] == MEASURE]
    in_units = [s for s in measured if tracer.op_names.get(s[3]) in unit_ops]

    values: dict[str, float] = {}
    for metric, name in _PER_UNIT_MS.items():
        values[metric] = 1e3 * _total(in_units, name) / units
    for metric, name in _PER_CALL_MS.items():
        n = _calls(spans, name)
        values[metric] = 1e3 * _total(spans, name) / n if n else 0.0

    queries = [s for s in in_units if s[4] == "cloud.query"]
    points = sum(s[7]["points"] for s in queries)
    values["cloud.query_calls"] = len(queries) / units
    values["cloud.query_points"] = points / units
    values["cloud.match_ratio"] = (sum(s[7]["pairs"] for s in queries) / points
                                   if points else 0.0)
    values["geom.umeyama_calls"] = _calls(in_units, "geom.umeyama") / units

    # ICP iterations: one correspondence query per iteration (plus the final
    # count when piecewise refinement runs out of iterations), per initial
    # registration of the measured part
    initial = _calls(measured, "register.register_initial_frame")
    parents = {s[0]: s[4] for s in spans}
    under = defaultdict(int)
    for s in measured:
        if s[4] == "cloud.query":
            under[parents.get(s[1])] += 1
    for metric, parent in (("register.general_iters", "register.general_alignment"),
                           ("register.piecewise_iters", "register.piecewise_refine")):
        values[metric] = under[parent] / initial if initial else 0.0

    frames = [s for s in in_units if s[4] == "register.process_interaction_frame"]
    values["register.updates"] = float(sum(s[7]["updates"] for s in frames))
    values["register.holds"] = float(sum(s[7]["holds"] for s in frames))
    values["register.self_ms"] = 1e3 * sum(
        t for name, t in _self_times(in_units).items()
        if name.startswith("register.")) / units

    writes = _calls(spans, "formats.write_depth")
    values["formats.write_frame_ms"] = (
        1e3 * (_total(spans, "formats.write_depth")
               + _total(spans, "formats.write_mask")) / writes if writes else 0.0)
    loads = _calls(spans, "formats.load_model")
    values["formats.load_models_ms"] = (
        1e3 * _total(spans, "formats.load_model") * 5 / loads if loads else 0.0)
    values["formats.recording_loads"] = float(_calls(measured, "formats.load_recording"))

    for cmd in ("simulate", "register", "track", "evaluate", "ablate"):
        n = _calls(measured, f"cli.{cmd}")
        values[f"cli.{cmd}_s"] = _total(measured, f"cli.{cmd}") / n if n else 0.0
    values.update(run_values)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def layer_table(tracer: Tracer) -> list[str]:
    """Readable table of the measured part: calls, total and self seconds."""
    measured = [s for s in tracer.spans if s[2] == MEASURE]
    own = _self_times(measured)
    lines = [f"{'span':<36} {'calls':>8} {'total_s':>9} {'self_s':>9}"]
    for name in sorted(own, key=lambda n: -own[n]):
        lines.append(f"{name:<36} {_calls(measured, name):>8} "
                     f"{_total(measured, name):>9.3f} {own[name]:>9.3f}")
    return lines
