"""Run the four estimator variants over a dataset and collect metrics.

The four configurations are 'ekf-lc', 'ekf-tc', 'fgo-lc' and 'fgo-tc'. Both
families' steppers (:class:`_EkfRunner`, :class:`fgo.FgoEstimator`) take one
:class:`RunConfig` and return a :class:`types.StepResult` per epoch. Each run
yields one :class:`residual_analysis.EpochRecord` per GNSS epoch, which is
that step's whole result plus its score (truth, 2D error, GNSS residual).
A TC epoch's record keeps its raw pseudorange residuals, one per satellite
in the epoch's order, the one store the distribution analyses and
``residuals.csv`` read; they are None for an LC epoch and for an epoch
without satellites.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import ekf, residual_analysis
from .canyon_sim import Dataset, generate_lc_fixes
# single_epoch_wls is not called here; it stays imported only because the
# benchmark tracer wraps harness.single_epoch_wls as a call site
from .fgo import FgoEstimator, fix_hdop, initial_state, position_seed, single_epoch_wls
from .frames import body_accel_to_ecef, ecef_to_geodetic
from .noise_models import WeightingParams, lc_fix_covariance, tc_covariance
from .nls_solver import LmConfig
from .residual_analysis import (
    EpochRecord,
    lc_residual,
    pseudorange_residuals,
    summarize,
    tc_residual,
)
from .types import BIAS, POS, VEL, Constellation, EpochMeasurements, StateLayout, StepResult, is_count

ESTIMATORS = ("ekf-lc", "ekf-tc", "fgo-lc", "fgo-tc")


@dataclass
class RunConfig:
    estimator: str = "fgo-tc"
    window: Optional[int] = 30  # epochs; None means batch
    weighting: WeightingParams = field(default_factory=WeightingParams)
    cov_scale: float = 1.0
    # the EKF predicts as INS measurements arrive, so per-epoch process noise
    # accumulates over imu_rate/gnss_rate prediction steps spanning the
    # epoch; the factor graph applies its covariances once per epoch
    ekf_predict_steps: int = 100
    # every window solve starts warm, one INS step from its last solution, so
    # its damping starts below LmConfig.gtol and its first step can pass the
    # gradient test (see LmConfig.lambda0)
    lm: LmConfig = field(default_factory=lambda: LmConfig(lambda0=1e-10))

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}"
            )
        w = self.window
        if w is not None and not is_count(w):
            raise ValueError(f"window must be an integer >= 1 (or None for batch), got {w!r}")
        if not is_count(self.ekf_predict_steps):
            raise ValueError(
                f"ekf_predict_steps must be an integer >= 1, got {self.ekf_predict_steps!r}"
            )
        if not (math.isfinite(self.cov_scale) and self.cov_scale > 0):
            raise ValueError(f"cov_scale must be finite and > 0, got {self.cov_scale!r}")

    @property
    def family(self) -> str:
        return self.estimator.split("-")[0]

    @property
    def coupling(self) -> str:
        return self.estimator.split("-")[1]


@dataclass
class RunResult:
    estimator: str
    records: list[EpochRecord]
    summary: dict


# the state of a TC run: one clock per constellation, whichever a dataset holds
TC_LAYOUT = StateLayout(tuple(Constellation))


class _EkfRunner:
    """Per-epoch EKF loop shared by the LC and TC variants. ``cfg.cov_scale``
    scales the initial, process and measurement noise alike: the gain, and so
    the estimate, stays and the covariance scales (criterion 9's counterpart)."""

    def __init__(self, cfg: RunConfig, layout: StateLayout):
        self.coupling = cfg.coupling
        self.layout = layout
        self.cfg = cfg
        self.belief: Optional[ekf.BeliefState] = None
        # (dt, process noise) of the last epoch length seen: the noise is
        # accumulated again only when an epoch's dt differs
        self._noise: tuple = (None, None)
        self._vel_seeded = False
        self._t_prev = -np.inf

    def step(self, meas: EpochMeasurements) -> StepResult:
        t0 = time.perf_counter()
        if meas.t <= self._t_prev:
            raise ValueError("epochs must arrive in strictly increasing time order")
        self._t_prev = meas.t
        scale = self.cfg.cov_scale
        if self.belief is None:
            mean = initial_state(meas, self.coupling, self.layout, self.cfg.weighting)
            cov = ekf.initial_covariance(self.layout) * scale
            self.belief = ekf.BeliefState(mean, cov, self.layout)
            return StepResult(mean.copy(), time.perf_counter() - t0)
        if not self._vel_seeded:
            # receiver-style two-point velocity seed: difference the first
            # two position solutions instead of starting blind from zero
            self._vel_seeded = True
            z = position_seed(meas, self.coupling, self.cfg.weighting, self.belief.mean[POS])
            if z is not None:
                self.belief.mean[VEL] = (z - self.belief.mean[POS]) / meas.dt
        geo = ecef_to_geodetic(self.belief.mean[POS])
        accel_ecef = body_accel_to_ecef(
            meas.accel_body_mean, self.belief.mean[BIAS], meas.attitude, geo
        )
        if meas.dt != self._noise[0]:
            q = ekf.accumulated_process_noise(self.layout, self.cfg.ekf_predict_steps, meas.dt)
            self._noise = (meas.dt, q * scale)
        belief = ekf.predict(self.belief, accel_ecef, meas.dt, self._noise[1])
        if self.coupling == "lc":
            if meas.fix_available:
                hdop = fix_hdop(meas, belief.mean[POS])
                r = lc_fix_covariance(hdop, self.cfg.weighting.s_user) * scale
                belief = ekf.update_lc(belief, meas.fix_pos, r)
        else:
            if meas.sats:
                r = tc_covariance(meas.sats, self.cfg.weighting) * scale
                belief = ekf.update_tc(belief, meas.sats, r)
        self.belief = belief
        return StepResult(belief.mean.copy(), time.perf_counter() - t0)


def _lc_epochs(ds: Dataset, weighting: WeightingParams) -> list[EpochMeasurements]:
    """The dataset's epochs when any carries an LC fix; else shallow copies
    given fixes generated with ``weighting``, so ``ds`` itself stays as it was."""
    if any(e.fix_available for e in ds.epochs):
        return ds.epochs
    epochs = [copy.copy(e) for e in ds.epochs]
    generate_lc_fixes(epochs, weighting)
    return epochs


def make_stepper(cfg: RunConfig, layout: StateLayout) -> _EkfRunner | FgoEstimator:
    """The estimator ``cfg`` names; feed it epochs in time order via ``step``."""
    if cfg.family == "ekf":
        return _EkfRunner(cfg, layout)
    return FgoEstimator(cfg, layout)


def run_estimator(ds: Dataset, cfg: RunConfig) -> RunResult:
    """Run one estimator over the dataset and collect per-epoch records."""
    epochs, layout = ds.epochs, TC_LAYOUT
    if cfg.coupling == "lc":
        epochs, layout = _lc_epochs(ds, cfg.weighting), StateLayout()
    stepper = make_stepper(cfg, layout)

    records: list[EpochRecord] = []
    for k, meas in enumerate(epochs):
        result = stepper.step(meas)
        state, raw = result.state, None
        residual = float("nan")
        if cfg.coupling == "lc":
            if meas.fix_available:
                residual = lc_residual(meas.fix_pos, state)
        elif meas.sats:
            # a TC window hands on its last pricing of the epoch's rows when
            # that was at the returned state
            raw = result.residuals
            if raw is None:
                raw = pseudorange_residuals(meas.sats, state, layout)
            residual = tc_residual(raw)

        # looked up at call time, so a caller that replaces
        # residual_analysis.error_2d (a tracer or a timing probe) sees every call
        err_2d = residual_analysis.error_2d(state[POS], ds.truth_pos[k], ds.ref)
        # a copy of the step's fields: the step's own result stays as it was
        records.append(
            EpochRecord(
                **{**vars(result), "residuals": raw},
                epoch=meas.t,
                truth_pos=ds.truth_pos[k].copy(),
                err_2d=err_2d,
                residual=residual,
            )
        )

    return RunResult(cfg.estimator, records, summarize(records))


def compare(
    ds: Dataset, estimators: Sequence[str] = ESTIMATORS, base: Optional[RunConfig] = None
) -> dict[str, RunResult]:
    """Run several estimators over identical data."""
    base = base or RunConfig()
    out: dict[str, RunResult] = {}
    for name in estimators:
        out[name] = run_estimator(ds, replace(base, estimator=name))
    return out


def sweep_windows(
    ds: Dataset, sizes: Sequence[Optional[int]], base: Optional[RunConfig] = None
) -> list[dict]:
    """Window-size sweep of the TC factor-graph estimator over identical data.

    One row per size (an int, or None for batch): the window and the run's
    summary.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("no window sizes requested")
    base = base or RunConfig()
    rows = []
    for size in sizes:
        result = run_estimator(ds, replace(base, estimator="fgo-tc", window=size))
        rows.append({"window": "batch" if size is None else int(size), **result.summary})
    return rows
