"""In-memory span tracer that wraps the public functions of each layer.

A layer is one module of ``varifoldlab``.  ``Tracer.install`` replaces every
public function defined in a layer module, in every ``varifoldlab`` module
namespace that binds it (``iterated_projection`` imports
``local_maximal_tilt`` by name, ``curvature`` and ``conformal`` import
``cotangent_laplacian``, and so on), plus ``WeightedSurfaceSample.ball_query``
and the ``spatial_index`` property.  Each wrapped call appends one span
``[name, job, parent, start, end]`` to a list; nothing is written until the
caller asks.  ``Tracer.restore`` puts every original object back.

The wrappers pass arguments and results through untouched, so a traced run
computes bit-for-bit the same numbers as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "synthetic",
    "geometry",
    "multiscale",
    "curvature",
    "meshing",
    "iterated_projection",
    "conformal",
)

# Per-function metrics reported by name: <name>.calls and <name>.self_s.
NAMED_FUNCTIONS = (
    "synthetic.generate",
    "geometry.ball_query",
    "geometry.fit_plane_pca",
    "geometry.grassmann_project",
    "multiscale.build_scale_family",
    "multiscale.certify_chord_arc",
    "multiscale.flatness_details",
    "multiscale.density_ratio",
    "multiscale.tilt_excess",
    "multiscale.beta_report",
    "multiscale.jones_beta",
    "multiscale.local_maximal_tilt",
    "curvature.build_curvature_field",
    "curvature.estimate_mean_curvature",
    "meshing.cotangent_laplacian",
    "meshing.vertex_areas",
    "meshing.triangle_areas",
    "iterated_projection.iterate_parameterization",
    "iterated_projection.reference_plane",
    "iterated_projection.extract_fine_set",
    "iterated_projection.build_separated_net",
    "iterated_projection.build_sigma_delta",
    "iterated_projection.normal_field",
    "iterated_projection.project_tau",
    "iterated_projection.distortion_report",
    "conformal.extract_disk_patch",
    "conformal.harmonic_disk_param",
    "conformal.conformal_diagnostics",
    "conformal.intrinsic_metric_diagnostics",
)

# Counts recorded at layer boundaries, with their units and better
# direction.  Ratios are formed from raw totals in ``layer_metrics``.
NAMED_COUNTS = (
    ("geometry.ball_query.rows", "count", "lower"),
    ("geometry.spatial_index.builds", "count", "lower"),
    ("multiscale.certify.balls", "count", "lower"),
    ("multiscale.certify.skip_ratio", "ratio", "lower"),
    ("iterated_projection.stages", "count", "lower"),
    ("iterated_projection.net_groups", "count", "lower"),
    ("iterated_projection.net_size", "count", "lower"),
    ("iterated_projection.fine_ratio", "ratio", "higher"),
    ("conformal.patch_vertices", "count", "lower"),
    ("conformal.patch_triangles", "count", "lower"),
)

# Whole-run trace figures: spans per batch, summed self time of all spans,
# that sum over the traced batch wall time, and traced minus untraced wall.
TRACE_FIGURES = (
    ("trace.spans", "count", "lower"),
    ("trace.self_total_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("tracing_overhead_s", "s", "lower"),
)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for name in NAMED_FUNCTIONS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for layer in LAYERS:
        out.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for name, unit, better in NAMED_COUNTS + TRACE_FIGURES:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _count_ball_rows(counts, args, result):
    counts["geometry.ball_query.rows"] += len(result)


def _count_certify(counts, args, result):
    counts["multiscale.certify.balls"] += len(result.balls) + len(result.errors)
    counts["multiscale.certify.skipped"] += len(result.errors)


def _count_iteration(counts, args, result):
    counts["iterated_projection.stages"] += len(result.stages)


def _count_fine(counts, args, result):
    counts["iterated_projection.fine_rows"] += len(result.indices)
    counts["iterated_projection.sample_rows"] += len(args[0])


def _count_net(counts, args, result):
    counts["iterated_projection.net_groups"] += result.group_count
    counts["iterated_projection.net_size"] += len(result.indices)


def _count_patch(counts, args, result):
    counts["conformal.patch_vertices"] += len(result)
    counts["conformal.patch_triangles"] += result.n_triangles


_RESULT_HOOKS = {
    "geometry.ball_query": _count_ball_rows,
    "multiscale.certify_chord_arc": _count_certify,
    "iterated_projection.iterate_parameterization": _count_iteration,
    "iterated_projection.extract_fine_set": _count_fine,
    "iterated_projection.build_separated_net": _count_net,
    "conformal.extract_disk_patch": _count_patch,
}


class Tracer:
    """Span recorder for one process; install, run, restore."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.job = -1
        self.active = True  # off while the benchmark checks outputs
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, self.job, parent, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            record[3] = start
            self._stack.pop()
        hook = _RESULT_HOOKS.get(name)
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions wherever they are bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            layer: importlib.import_module(f"varifoldlab.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "varifoldlab" and not modname.startswith("varifoldlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

        cls = modules["geometry"].WeightedSurfaceSample
        ball_query = cls.__dict__["ball_query"]
        spatial_index = cls.__dict__["spatial_index"]

        def traced_spatial_index(sample):
            # only builds are spans; cached lookups cost nothing worth a span
            if not self.active or vars(sample).get("_tree") is not None:
                return spatial_index.fget(sample)
            self.counts["geometry.spatial_index.builds"] += 1
            return self.call("geometry.spatial_index", spatial_index.fget, (sample,), {})

        setattr(cls, "ball_query", self._wrap(ball_query, "geometry.ball_query"))
        setattr(cls, "spatial_index", property(traced_spatial_index, doc=spatial_index.__doc__))
        self._patched.append((cls, "ball_query", ball_query))
        self._patched.append((cls, "spatial_index", spatial_index))

    def restore(self) -> None:
        """Put back every original function, method and property."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def take(self):
        """Hand over and clear the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def layer_metrics(spans: list[list], counts: dict, wall: float) -> dict:
    """Per-layer figures of one traced batch.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children nest inside parents.
    """
    child_time = [0.0] * len(spans)
    for name, job, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: defaultdict[str, int] = defaultdict(int)
    self_s: defaultdict[str, float] = defaultdict(float)
    for i, (name, job, parent, start, end) in enumerate(spans):
        own = end - start - child_time[i]
        calls[name] += 1
        self_s[name] += own
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += own
    out = {}
    for name in NAMED_FUNCTIONS + LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name, _, _ in NAMED_COUNTS:
        out[name] = counts.get(name, 0)
    balls = counts.get("multiscale.certify.balls", 0)
    out["multiscale.certify.skip_ratio"] = (
        counts.get("multiscale.certify.skipped", 0) / balls if balls else 0.0
    )
    rows = counts.get("iterated_projection.sample_rows", 0)
    out["iterated_projection.fine_ratio"] = (
        counts.get("iterated_projection.fine_rows", 0) / rows if rows else 0.0
    )
    total_self = sum(self_s[layer] for layer in LAYERS)
    out["trace.spans"] = len(spans)
    out["trace.self_total_s"] = total_self
    out["trace.coverage"] = total_self / wall if wall > 0 else 0.0
    return out
