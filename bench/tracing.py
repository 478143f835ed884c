"""Spans around qcalib's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function and public method of the
traced modules with a wrapper that records one span per call: its name and
layer, start and end, the span that called it, the outermost span of the
same request (one closed-loop call or one pipeline step), a few counts read
from the arguments or the result and, for the layers in PEAK_LAYERS, the
peak bytes allocated while it was open (from tracemalloc, which numpy
reports to). Module-level names that
other qcalib modules imported are rebound too, so calls made inside the
package are seen. `uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("data", "regressors", "projection", "quantile", "calibration", "metrics", "cli")

# counts taken at the layer boundary: fn(args, result) -> {name: int}
COUNTERS = {
    "data.read_numeric_csv": lambda args, result: {"cells": int(result[1].size)},
    "regressors.FittedRegressor.predict": lambda args, result: {"rows": int(result.shape[0])},
    "quantile.QuantileEstimator.predict_quantile_batch": lambda args, result: {
        "rows": int(result.shape[0])
    },
    "quantile.QuantileEstimator.neighborhood": lambda args, result: {
        "members": int(result.indices.size),
        "scanned": int(args[0].n_points),
        "widened": int(result.effective_h > args[0].kernel.bandwidth),
    },
}

# allocation peaks are taken (tracemalloc on) only inside the outermost span
# of these layers in the pipeline phase: tracing every allocation of the
# pure-Python CSV and JSON code would slow it several times over
PEAK_LAYERS = frozenset({"regressors", "quantile"})

_CV = frozenset({"quantile.select_bandwidth", "quantile.bandwidth_cv_scores"})


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    root: int
    phase: str
    start: float
    end: float = 0.0
    base_bytes: int = 0
    max_bytes: int = 0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)
    owns_tracing: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def peak_bytes(self) -> int:
        return self.max_bytes - self.base_bytes

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "root": self.root,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "peak_bytes": self.peak_bytes,
            "counts": self.counts,
        }


class Tracer:
    """Records spans while installed; `phase` tags the spans opened next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qcalib.{layer}")
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, f"{layer}.{name}", layer)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qcalib" and not mod_name.startswith("qcalib."):
                continue
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, key, wrapped[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_methods(self, cls, qual: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, f"{qual}.{attr}", layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"{qual}.{attr}", layer))

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(args, result)
                return result
            finally:
                self._close(span)

        return traced

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        owns_tracing = (
            self.phase == "pipeline" and layer in PEAK_LAYERS and not tracemalloc.is_tracing()
        )
        if owns_tracing:
            tracemalloc.start()
        current = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.max_bytes = max(parent.max_bytes, peak)
            tracemalloc.reset_peak()
        span_id = len(self.spans)
        span = Span(
            id=span_id,
            name=name,
            layer=layer,
            parent=None if parent is None else parent.id,
            root=span_id if parent is None else parent.root,
            phase=self.phase,
            start=0.0,
            base_bytes=current,
            max_bytes=current,
            owns_tracing=owns_tracing,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if tracemalloc.is_tracing():
            span.max_bytes = max(span.max_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.duration
            parent.max_bytes = max(parent.max_bytes, span.max_bytes)
        if span.owns_tracing:
            tracemalloc.stop()


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the "pipeline" and "scalar" phases.

    Times are sums over the pipeline's spans of one function (self time where
    the name says so); CV-internal estimator calls count toward
    ``quantile.cv_*`` only. The scalar phase supplies the per-call latency of
    the quantile layer and the ball statistics.
    """
    by_id = {s.id: s for s in spans}
    pipe = [s for s in spans if s.phase == "pipeline"]
    scalar = [s for s in spans if s.phase == "scalar"]

    def named(*names, source=pipe):
        return [s for s in source if s.name in names]

    def under_cv(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name in _CV:
                return True
            parent = by_id[parent].parent
        return False

    def total(ss) -> float:
        return sum((s.duration for s in ss), 0.0)

    def peak_mb(ss) -> float:
        return max((s.peak_bytes for s in ss), default=0) / 2**20

    reads = named("data.read_numeric_csv")
    reg_pred = named("regressors.FittedRegressor.predict")
    cv = [s for s in named(*_CV) if not under_cv(s)]
    cv_fits = [s for s in named("quantile.QuantileEstimator.fit") if under_cv(s)]
    q_batch = [
        s for s in named("quantile.QuantileEstimator.predict_quantile_batch") if not under_cv(s)
    ]
    q_scalar = named("quantile.QuantileEstimator.predict_quantile", source=scalar)
    balls = named("quantile.QuantileEstimator.neighborhood", source=scalar)
    read_s = total(reads)
    reg_s = total(reg_pred)
    q_batch_s = total(q_batch)
    return {
        "data.read_csv_s": (read_s, "s"),
        "data.read_csv_cells_per_s": (_ratio(sum(s.counts["cells"] for s in reads), read_s), "cells/s"),
        "data.split_s": (total(named("data.split")), "s"),
        "regressors.fit_s": (total(named("regressors.fit_regressor")), "s"),
        "regressors.predict_s": (reg_s, "s"),
        "regressors.predict_rows_per_s": (_ratio(sum(s.counts["rows"] for s in reg_pred), reg_s), "rows/s"),
        "regressors.peak_alloc_mb": (peak_mb(reg_pred), "MB"),
        "projection.select_s": (
            total(named("projection.correlation_select", "projection.gaussian_projection")),
            "s",
        ),
        "projection.apply_s": (total(named("projection.apply_projection")), "s"),
        "quantile.cv_s": (total(cv), "s"),
        "quantile.cv_fits": (len(cv_fits), "count"),
        "quantile.predict_batch_s": (q_batch_s, "s"),
        "quantile.predict_batch_rows_per_s": (
            _ratio(sum(s.counts["rows"] for s in q_batch), q_batch_s),
            "rows/s",
        ),
        "quantile.scalar_call_us": (
            statistics.median(s.duration for s in q_scalar) * 1e6 if q_scalar else 0.0,
            "us",
        ),
        "quantile.ball_fill": (
            _ratio(sum(s.counts["members"] for s in balls), sum(s.counts["scanned"] for s in balls)),
            "ratio",
        ),
        "quantile.widened_queries": (len({s.root for s in balls if s.counts["widened"]}), "count"),
        "quantile.peak_alloc_mb": (peak_mb([s for s in pipe if s.layer == "quantile"]), "MB"),
        "calibration.calibrate_self_s": (
            sum((s.self_s for s in named("calibration.calibrate")), 0.0),
            "s",
        ),
        "calibration.save_s": (total(named("calibration.save_model")), "s"),
        "calibration.load_s": (total(named("calibration.load_model")), "s"),
        "metrics.evaluate_s": (total(named("metrics.evaluate_predictions")), "s"),
        "cli.self_s": (sum((s.self_s for s in named("cli.main")), 0.0), "s"),
    }
