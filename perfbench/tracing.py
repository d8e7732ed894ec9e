"""Span tracing over the public functions of every corrsmooth layer.

A traced op runs with each public function of ``kernels``, ``locfit``,
``bandwidth``, ``covariance``, ``simulate`` and ``cli`` replaced by a
wrapper that records one span: name, start, end, parent span and op id.
Most functions are also imported by name into other modules (``from .locfit
import fit_all`` in ``bandwidth``, ``simulate``, ``covariance`` and ``cli``),
so every binding in every ``corrsmooth`` module is replaced, not only the
defining one.  Private helpers (``_fit_all_ws``, ``_PairSums``, ...) stay
unwrapped, so their time is self time of the public function calling them.

Counters are read from each traced call's arguments and result, at the
boundary where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("kernels", "locfit", "bandwidth", "covariance", "simulate", "cli")

# (name, unit) of every per-layer metric, in report order.  Calls and
# counts are per traced op; self times are seconds per traced op.
PER_LAYER = [
    ("simulate.generate.calls", "count/op"),
    ("simulate.generate.self_s", "s/op"),
    ("simulate.draw_correlated_errors.self_s", "s/op"),
    ("bandwidth.gcv_select.self_s", "s/op"),
    ("bandwidth.gcv_score.self_s", "s/op"),
    ("locfit.hat_matrix.calls", "count/op"),
    ("locfit.hat_matrix.self_s", "s/op"),
    ("simulate.min_epan_mse.self_s", "s/op"),
    ("locfit.fit_all.calls", "count/op"),
    ("locfit.fit_all.self_s", "s/op"),
    ("bandwidth.default_grid.calls", "count/op"),
    ("bandwidth.default_grid.self_s", "s/op"),
    ("bandwidth.select_h_z.calls", "count/op"),
    ("bandwidth.select_h_z.self_s", "s/op"),
    ("bandwidth.elbow_scan.self_s", "s/op"),
    ("bandwidth.grid_points", "count/op"),
    ("bandwidth.feasible_ratio", "ratio"),
    ("bandwidth.edge_picks", "count/op"),
    ("kernels.build_annulus_kernel.calls", "count/op"),
    ("kernels.build_annulus_kernel.self_s", "s/op"),
    ("covariance.calibrate_b.calls", "count/op"),
    ("covariance.calibrate_b.self_s", "s/op"),
    ("covariance.covariance_curve.calls", "count/op"),
    ("covariance.covariance_curve.self_s", "s/op"),
    ("covariance.sigma2_rss.self_s", "s/op"),
    ("covariance.pairs", "count/op"),
    ("covariance.lags", "count/op"),
    ("covariance.fallbacks", "count/op"),
    ("covariance.dropped_lags", "count/op"),
    ("locfit.pairwise_distances.calls", "count/op"),
    ("locfit.pairwise_distances.self_s", "s/op"),
    ("simulate.sse_cor.self_s", "s/op"),
    ("locfit.load_csv.self_s", "s/op"),
    ("locfit.fit_points.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.artifact_bytes", "B/op"),
    ("warnings.grid_boundary", "count/op"),
    ("warnings.calibration_fallback", "count/op"),
    ("warnings.dropped_lags", "count/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_min", "ratio"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pair_count(args, kwargs) -> int:
    n = _arg(args, kwargs, 0, "data").n
    return n * (n - 1) // 2


def _count_select_h_z(counts, args, kwargs, sel):
    counts["bandwidth.grid_points"] += sel.grid.size
    counts["bandwidth.feasible"] += int(np.isfinite(sel.rss_trace).sum())
    counts["bandwidth.edge_picks"] += sel.h_z in (sel.grid[0], sel.grid[-1])


def _count_gcv_score(counts, args, kwargs, score):
    counts["bandwidth.grid_points"] += 1
    counts["bandwidth.feasible"] += math.isfinite(score)


def _count_gcv_select(counts, args, kwargs, h):
    grid = np.asarray(_arg(args, kwargs, 2, "grid"), dtype=float)
    counts["bandwidth.edge_picks"] += h in (grid[0], grid[-1])


def _count_calibrate_b(counts, args, kwargs, trace):
    counts["covariance.pairs"] += _pair_count(args, kwargs)
    counts["covariance.lags"] += trace.b_candidates.size
    counts["covariance.fallbacks"] += trace.fallback


def _count_covariance_curve(counts, args, kwargs, est):
    counts["covariance.pairs"] += _pair_count(args, kwargs)
    counts["covariance.lags"] += est.t_grid.size + est.dropped.size
    counts["covariance.dropped_lags"] += est.dropped.size


def _count_cli_main(counts, args, kwargs, code):
    argv = list(_arg(args, kwargs, 0, "argv"))
    if "--output-dir" not in argv:
        return
    outdir = argv[argv.index("--output-dir") + 1]
    with os.scandir(outdir) as entries:
        counts["cli.artifact_bytes"] += sum(e.stat().st_size for e in entries if e.is_file())


COUNTERS = {
    "bandwidth.select_h_z": _count_select_h_z,
    "bandwidth.gcv_score": _count_gcv_score,
    "bandwidth.gcv_select": _count_gcv_select,
    "covariance.calibrate_b": _count_calibrate_b,
    "covariance.covariance_curve": _count_covariance_curve,
    "cli.main": _count_cli_main,
}


def public_functions() -> dict:
    """'layer.name' -> function, for every function a layer exports.

    Exported means listed in the module's ``__all__`` or re-exported by
    the package; only functions defined in that module count.
    """
    package = importlib.import_module("corrsmooth")
    exported = {n for n in dir(package) if not n.startswith("_")}
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"corrsmooth.{layer}")
        for name in set(getattr(module, "__all__", ())) | exported:
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Records spans and counters of the ops run between install and uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._wrappers = {fn: self._wrap(name, fn) for name, fn in public_functions().items()}
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, op) -> None:
        """Replace every binding of every public function in every corrsmooth module."""
        self._op = op
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "corrsmooth" or modname.startswith("corrsmooth.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()
        self._op = None

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name; self = span minus its traced children."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
        return calls, self_s

    def coverage(self, op_walls: dict) -> dict:
        """Per op: summed top-level span time over the op's wall time."""
        top = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent < 0:
                top[op] += end - start
        return {op: top[op] / wall for op, wall in op_walls.items()}


def layer_metrics(tracer: Tracer, n_ops: int, warnings_per_op: dict, overhead: float, coverage_min: float) -> dict:
    """Every PER_LAYER metric as name -> value; calls, counts and self times per traced op."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]] / n_ops
        elif name.endswith(".self_s"):
            values[name] = self_s[name[: -len(".self_s")]] / n_ops
        elif name.startswith("warnings."):
            values[name] = warnings_per_op.get(name[len("warnings."):], 0.0)
        else:
            values[name] = counts[name] / n_ops
    tried = counts["bandwidth.grid_points"]
    values["bandwidth.feasible_ratio"] = counts["bandwidth.feasible"] / tried if tried else 0.0
    values["trace.overhead_ratio"] = overhead
    values["trace.coverage_min"] = coverage_min
    return values
