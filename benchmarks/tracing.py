"""Spans recorded around calls into the gnssins modules, from outside them.

A :class:`Tracer` replaces module attributes at the place where callers look
them up at call time (``fgo.solve_lm``, ``nls_solver.total_cost``,
``harness.single_epoch_wls``, ...) with wrappers that record one span per
call: name, start, end, parent span and run id. Spans stay in memory until
the run ends; :meth:`Tracer.restore` puts the original functions back.

:func:`layer_metrics` turns the spans of one run id into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _run_estimator_attrs(args, result) -> dict:
    return {"estimator": args[1].estimator}


def _window_attrs(args, problem) -> dict:
    return {"blocks": len(problem.blocks), "dim": problem.total_dim}


def _solve_attrs(args, report) -> dict:
    return {
        "iterations": report.iterations,
        "accepted": len(report.cost_trace) - 1,
        "jacobian_evals": report.jacobian_evals,
        "converged": report.converged,
    }


# (module, attribute path in that module, span name, attribute extractor).
# One function can sit at several call sites (harness and fgo both call
# single_epoch_wls); each site is wrapped separately under the same span name.
SITES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("canyon_sim", "simulate", "canyon_sim.simulate", None),
    ("canyon_sim", "generate_lc_fixes", "canyon_sim.generate_lc_fixes", None),
    ("harness", "run_estimator", "harness.run_estimator", _run_estimator_attrs),
    ("fgo", "FgoEstimator.step", "fgo.FgoEstimator.step", None),
    ("fgo", "build_window", "fgo.build_window", _window_attrs),
    ("fgo", "solve_lm", "nls_solver.solve_lm", _solve_attrs),
    ("nls_solver", "total_cost", "nls_solver.total_cost", None),
    ("fgo", "single_epoch_wls", "fgo.single_epoch_wls", None),
    ("harness", "single_epoch_wls", "fgo.single_epoch_wls", None),
    ("ekf", "predict", "ekf.predict", None),
    ("ekf", "update_lc", "ekf.update_lc", None),
    ("ekf", "update_tc", "ekf.update_tc", None),
    ("residual_analysis", "error_2d", "residual_analysis.error_2d", None),
    ("harness", "lc_residual", "residual_analysis.lc_residual", None),
    ("harness", "tc_residual", "residual_analysis.tc_residual", None),
    ("harness", "pseudorange_residuals", "residual_analysis.pseudorange_residuals", None),
    ("harness", "ecef_to_geodetic", "frames.ecef_to_geodetic", None),
    ("harness", "body_accel_to_ecef", "frames.body_accel_to_ecef", None),
    ("fgo", "ecef_to_geodetic", "frames.ecef_to_geodetic", None),
    ("fgo", "body_accel_to_ecef", "frames.body_accel_to_ecef", None),
    ("harness", "lc_fix_covariance", "noise_models.lc_fix_covariance", None),
    ("harness", "tc_covariance", "noise_models.tc_covariance", None),
    ("fgo", "lc_fix_covariance", "noise_models.lc_fix_covariance", None),
    ("fgo", "tc_covariance", "noise_models.tc_covariance", None),
    ("fgo", "compute_hdop", "noise_models.compute_hdop", None),
)


class Tracer:
    """Wraps the call sites in :data:`SITES` and records their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        for module_name, path, span_name, attrs in SITES:
            owner = importlib.import_module(f"gnssins.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, attrs))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# per-layer metrics that count work; two traced runs must agree on them exactly
COUNT_METRICS = (
    "nls_solver.total_cost.calls",
    "fgo.single_epoch_wls.calls",
    "fgo.build_window.calls",
    "fgo.window.blocks_mean",
    "fgo.window.dim_mean",
    "nls_solver.lm.iterations",
    "nls_solver.lm.accepted",
    "nls_solver.lm.rejected",
    "nls_solver.lm.accept_ratio",
    "nls_solver.lm.jacobian_evals",
    "nls_solver.lm.unconverged",
)


def layer_metrics(spans: list[Span], run: str) -> dict[str, float]:
    """Per-layer metrics from the spans of one run id (seconds and counts)."""
    from gnssins.harness import ESTIMATORS

    spans = [s for s in spans if s.run == run]
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def parent_name(s: Span) -> Optional[str]:
        return by_id[s.parent].name if s.parent is not None else None

    def self_time(group: list[Span], minus: Optional[set] = None) -> float:
        return sum(
            s.duration
            - sum(c.duration for c in children[s.id] if minus is None or c.name in minus)
            for s in group
        )

    def layer_total(module: str) -> float:
        # outermost spans of the module only, so nested calls count once
        prefix = module + "."
        return sum(
            s.duration
            for s in spans
            if s.name.startswith(prefix) and not (parent_name(s) or "").startswith(prefix)
        )

    solves = named["nls_solver.solve_lm"]
    window = [s for s in solves if parent_name(s) == "fgo.FgoEstimator.step"]
    wls = [s for s in solves if parent_name(s) == "fgo.single_epoch_wls"]
    trial_steps = [c for s in window for c in children[s.id] if c.name == "nls_solver.total_cost"]
    accepted = sum(s.attrs["accepted"] for s in window)
    builds = named["fgo.build_window"]
    runs = named["harness.run_estimator"]

    out = {
        "nls_solver.solve_lm.window.self_s": self_time(window),
        "nls_solver.solve_lm.wls.self_s": self_time(wls),
        "fgo.single_epoch_wls.s": sum(s.duration for s in named["fgo.single_epoch_wls"]),
        "fgo.single_epoch_wls.calls": len(named["fgo.single_epoch_wls"]),
        "nls_solver.total_cost.s": sum(s.duration for s in trial_steps),
        "nls_solver.total_cost.calls": len(trial_steps),
        "nls_solver.lm.iterations": sum(s.attrs["iterations"] for s in window),
        "nls_solver.lm.accepted": accepted,
        "nls_solver.lm.rejected": len(trial_steps) - accepted,
        "nls_solver.lm.accept_ratio": accepted / len(trial_steps) if trial_steps else 0.0,
        "nls_solver.lm.jacobian_evals": sum(s.attrs["jacobian_evals"] for s in window),
        "nls_solver.lm.unconverged": sum(not s.attrs["converged"] for s in window),
        "fgo.build_window.s": sum(s.duration for s in builds),
        "fgo.build_window.calls": len(builds),
        "fgo.window.blocks_mean": (
            sum(s.attrs["blocks"] for s in builds) / len(builds) if builds else 0.0
        ),
        "fgo.window.dim_mean": sum(s.attrs["dim"] for s in builds) / len(builds) if builds else 0.0,
        "fgo.step.self_s": self_time(
            named["fgo.FgoEstimator.step"],
            {"fgo.build_window", "nls_solver.solve_lm", "fgo.single_epoch_wls"},
        ),
        "ekf.predict.s": sum(s.duration for s in named["ekf.predict"]),
        "ekf.update_lc.s": sum(s.duration for s in named["ekf.update_lc"]),
        "ekf.update_tc.s": sum(s.duration for s in named["ekf.update_tc"]),
    }
    for est in ESTIMATORS:
        out[f"harness.run_estimator.{est}.s"] = sum(
            s.duration for s in runs if s.attrs["estimator"] == est
        )
    out["harness.self_s"] = self_time(runs)
    for module in ("residual_analysis", "frames", "noise_models"):
        out[f"{module}.s"] = layer_total(module)
    out["canyon_sim.simulate.s"] = sum(s.duration for s in named["canyon_sim.simulate"])
    out["canyon_sim.generate_lc_fixes.s"] = sum(
        s.duration for s in named["canyon_sim.generate_lc_fixes"]
    )
    return out
