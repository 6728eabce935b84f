"""Span tracer for the haarriesz benchmark.

The tracer lives entirely outside the package.  It wraps public layer
functions by rebinding the names each importing ``haarriesz`` module looks
up, plus ``ResolvingKernel`` construction, ``LinearFieldOp.normal_apply``
and the ``numpy.fft`` transforms.  Spans carry an id, a parent id, a layer
name, start and end; they are kept in memory and written out once, when
the traced job ends.  Self time and the per-layer metrics are computed from
the spans afterwards, so the traced process does no aggregation.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from typing import Callable, Optional

# Per-layer metrics: (name, unit, better, end-to-end metric it should move).
# BENCHMARK.json declares the same names; the benchmark's tests keep the two
# lists equal.
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("haar.analyze.calls", "count", "lower", "wall_s on slices, operators"),
    ("haar.analyze.points", "count", "lower", "wall_s on slices, operators"),
    ("haar.analyze.self_s", "s", "lower", "wall_s on slices, operators"),
    ("haar.synthesize.calls", "count", "lower", "wall_s on slices, operators"),
    ("haar.synthesize.points", "count", "lower", "wall_s on slices, operators"),
    ("haar.synthesize.self_s", "s", "lower", "wall_s on slices, operators"),
    ("fourier.delta_conv.calls", "count", "lower", "wall_s on slices"),
    ("fourier.delta_conv.points", "count", "lower", "wall_s on slices"),
    ("fourier.delta_conv.self_s", "s", "lower", "wall_s on slices"),
    ("fourier.fft.calls", "count", "lower", "wall_s on slices"),
    ("fourier.fft.points", "count", "lower", "wall_s on slices"),
    ("fourier.fft.bytes", "B", "lower", "wall_s on slices (computed: points x 16 B)"),
    ("fourier.fft.self_s", "s", "lower", "wall_s on slices"),
    ("fourier.kernel.builds", "count", "lower", "wall_s, peak_rss_mb on slices-3d"),
    ("fourier.kernel.bytes", "B", "lower", "wall_s, peak_rss_mb on slices-3d"),
    ("fourier.kernel.self_s", "s", "lower", "wall_s, peak_rss_mb on slices-3d"),
    ("fourier.riesz.calls", "count", "lower", "wall_s on analytic"),
    ("fourier.riesz.self_s", "s", "lower", "wall_s on analytic"),
    ("multiscale.t_ell.calls", "count", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.t_ell.self_s", "s", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.normal_apply.calls", "count", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.normal_apply.self_s", "s", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.op_norm.calls", "count", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.op_norm.iterations", "count", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.op_norm.converged_ratio", "ratio", "higher", "wall_s on slices, slices-3d, operators"),
    ("multiscale.op_norm.self_s", "s", "lower", "wall_s on slices, slices-3d, operators"),
    ("multiscale.rearrangement_build.self_s", "s", "lower", "wall_s, cpu_s on operators"),
    ("multiscale.ring_build.self_s", "s", "lower", "wall_s, cpu_s on operators"),
    ("profiles.cell_averages.calls", "count", "lower", "wall_s on analytic, operators"),
    ("profiles.cell_averages.points", "count", "lower", "wall_s on analytic, operators"),
    ("profiles.cell_averages.self_s", "s", "lower", "wall_s on analytic, operators"),
    ("profiles.integrate_product.calls", "count", "lower", "wall_s on analytic, operators"),
    ("sharpness.gram_norm2.calls", "count", "lower", "wall_s on analytic"),
    ("sharpness.gram_norm2.self_s", "s", "lower", "wall_s on analytic"),
    ("sharpness.bessel_lower_bound.calls", "count", "lower", "wall_s on analytic"),
    ("sharpness.bessel_lower_bound.self_s", "s", "lower", "wall_s on analytic"),
    ("sharpness.dense.calls", "count", "lower", "wall_s on analytic"),
    ("sharpness.dense.self_s", "s", "lower", "wall_s on analytic"),
    ("semiconvexity.jensen.calls", "count", "lower", "wall_s on analytic"),
    ("semiconvexity.jensen.self_s", "s", "lower", "wall_s on analytic"),
    ("semiconvexity.semicontinuity.calls", "count", "lower", "wall_s on analytic"),
    ("semiconvexity.semicontinuity.self_s", "s", "lower", "wall_s on analytic"),
    ("fields.calls", "count", "lower", "wall_s on all workloads"),
    ("fields.self_s", "s", "lower", "wall_s on all workloads"),
    ("grid.lp_norm.calls", "count", "lower", "wall_s on all workloads"),
    ("grid.lp_norm.self_s", "s", "lower", "wall_s on all workloads"),
    ("experiments.self_s", "s", "lower", "wall_s on all workloads"),
    ("cli.self_s", "s", "lower", "wall_s on all workloads"),
    ("cli.csv_bytes", "B", "lower", "wall_s on all workloads"),
    ("cli.checks_failed", "count", "lower", "none: program assertions that failed (seed-dependent)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of one pass"),
]

FFT_BYTES_PER_POINT = 16  # one complex128 value

NUMPY_FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

Span = tuple  # (id, parent_id, name, start, end, extras: dict | None)


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Optional[Span]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = []

    def wrap(self, name: str, fn: Callable, extras: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per outermost call of layer
        ``name``; a call nested directly in a span of the same layer is
        passed through, so counts are not doubled.  ``extras(args, result)``
        gives the span's work counts."""
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = extras(args, result) if extras is not None and result is not None else None
                spans[sid] = (sid, parent, name, start, end, extra)

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` counting calls only (for hot scalar helpers)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s for s in self.spans if s is not None], "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# installation


def _size_of_first(args, result) -> dict:
    return {"points": int(args[0].values.size)}


def _size_of_result(args, result) -> dict:
    return {"points": int(result.values.size)}


def _array_size(args, result) -> dict:
    return {"points": int(result.size)}


def _op_norm_extras(args, result) -> dict:
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


def _kernel_extras(args, result) -> dict:
    return {"bytes": int(result.samples.nbytes)}


def _rebind(modules, original: Callable, replacement: Callable) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the haarriesz layers and numpy.fft for ``tracer``.  Imports the
    whole package first so every importing module's names are rebound."""
    import numpy.fft

    from haarriesz import (cli, experiments, fields, fourier, grid, haar,
                           multiscale, profiles, semiconvexity, sharpness)

    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "haarriesz" or k.startswith("haarriesz."))]

    layers: list[tuple[str, list[Callable], Optional[Callable]]] = [
        ("haar.analyze", [haar.haar_analyze], _size_of_first),
        ("haar.synthesize", [haar.haar_synthesize], _size_of_result),
        ("fourier.delta_conv", [fourier.delta_conv], _size_of_first),
        ("fourier.riesz", [fourier.riesz], None),
        ("multiscale.t_ell", [multiscale.t_ell], None),
        ("multiscale.op_norm", [multiscale.op_norm2_estimate], _op_norm_extras),
        ("multiscale.rearrangement_build", [multiscale.rearrangement_operator], None),
        ("multiscale.ring_build", [multiscale.ring_projection_operator], None),
        ("profiles.cell_averages",
         [profiles.sine_cell_averages, profiles.pieces_cell_averages], _array_size),
        ("sharpness.gram_norm2", [sharpness.gram_norm2], None),
        ("sharpness.bessel_lower_bound", [sharpness.bessel_lower_bound], None),
        ("sharpness.dense", [sharpness.dense_lp_norm], None),
        ("semiconvexity.jensen", [semiconvexity.jensen_range_check], None),
        ("semiconvexity.semicontinuity", [semiconvexity.semicontinuity_experiment], None),
        ("fields", [getattr(fields, f) for f in fields.__all__ if f != "stream"], None),
        ("grid.lp_norm", [grid.lp_norm], None),
        ("experiments",
         [getattr(experiments, f) for f in experiments.__all__
          if inspect.isfunction(getattr(experiments, f))], None),
    ]
    for name, functions, extras in layers:
        for fn in functions:
            _rebind(modules, fn, tracer.wrap(name, fn, extras))
    _rebind(modules, profiles.integrate_product,
            tracer.counter("profiles.integrate_product.calls", profiles.integrate_product))

    multiscale.LinearFieldOp.normal_apply = tracer.wrap(
        "multiscale.normal_apply", multiscale.LinearFieldOp.normal_apply)
    post_init = fourier.ResolvingKernel.__post_init__

    def build_kernel(self) -> "fourier.ResolvingKernel":
        post_init(self)
        return self

    fourier.ResolvingKernel.__post_init__ = tracer.wrap("fourier.kernel", build_kernel, _kernel_extras)
    for name in NUMPY_FFT_TRANSFORMS:
        setattr(numpy.fft, name, tracer.wrap("fourier.fft", getattr(numpy.fft, name), _array_size))
    cli.main = tracer.wrap("cli", cli.main)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the durations of its
    direct children.  ``Tracer.wrap`` nests spans strictly, so children
    never overlap each other or outlive their parent."""
    out = {sid: end - start for sid, _parent, _name, start, end, _extra in spans}
    for _sid, parent, _name, start, end, _extra in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from one traced pass.  Only the names declared in
    LAYER_METRICS are produced; a layer with no spans reads 0."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    for sid, _parent, name, _start, _end, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
        for key, value in (extra or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
    fft_points = sums.get("fourier.fft.points", 0)
    op_calls = calls.get("multiscale.op_norm", 0)
    derived = {
        "fourier.fft.bytes": fft_points * FFT_BYTES_PER_POINT,
        "fourier.kernel.builds": calls.get("fourier.kernel", 0),
        "multiscale.op_norm.converged_ratio":
            sums.get("multiscale.op_norm.converged", 0) / op_calls if op_calls else 0.0,
    }
    out: dict[str, float] = {}
    for metric, _unit, _better, _moves in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in counts:
            out[metric] = counts[metric]
        elif field == "calls":
            out[metric] = calls.get(layer, 0)
        elif field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif metric in sums:
            out[metric] = sums[metric]
        else:
            out[metric] = 0
    return out
