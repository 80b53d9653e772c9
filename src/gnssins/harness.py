"""Run the four estimator variants over a dataset and collect metrics.

The four configurations are 'ekf-lc', 'ekf-tc', 'fgo-lc' and 'fgo-tc'. Each
run yields one record per GNSS epoch (estimate, 2D error, GNSS residual,
solve time) plus per-observation raw pseudorange residuals for the
distribution analyses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import ekf
from .canyon_sim import Dataset, generate_lc_fixes
from .fgo import FgoConfig, FgoEstimator, single_epoch_wls
from .frames import body_accel_to_ecef, ecef_to_geodetic
from .noise_models import GeometryError, WeightingParams, lc_fix_covariance, tc_covariance
from .nls_solver import LmConfig
from .residual_analysis import (
    EpochRecord,
    lc_residual,
    pseudorange_residuals,
    summarize,
    tc_residual,
)
from .types import BIAS, POS, VEL, Constellation, EpochMeasurements, StateLayout

ESTIMATORS = ("ekf-lc", "ekf-tc", "fgo-lc", "fgo-tc")


@dataclass
class RunConfig:
    estimator: str = "fgo-tc"
    window: Optional[int] = 30  # epochs; None means batch
    weighting: WeightingParams = field(default_factory=WeightingParams)
    clock_rw_sigma: float = 5.0
    cov_scale: float = 1.0
    # the EKF predicts as INS measurements arrive, so per-epoch process noise
    # accumulates over imu_rate/gnss_rate prediction steps; the factor graph
    # applies its covariances once per epoch
    ekf_predict_steps: int = 100
    lm: LmConfig = field(default_factory=LmConfig)

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}"
            )

    @property
    def family(self) -> str:
        return self.estimator.split("-")[0]

    @property
    def coupling(self) -> str:
        return self.estimator.split("-")[1]


@dataclass
class ObsResidual:
    epoch: float
    sat_id: str
    constellation: Constellation
    residual: float
    nlos: Optional[bool]


@dataclass
class RunResult:
    estimator: str
    records: list[EpochRecord]
    obs_residuals: list[ObsResidual]
    summary: dict


def dataset_layout(ds: Dataset) -> StateLayout:
    return StateLayout(tuple(ds.constellations))


class _EkfRunner:
    """Per-epoch EKF loop shared by the LC and TC variants."""

    def __init__(self, coupling: str, layout: StateLayout, cfg: RunConfig):
        self.coupling = coupling
        self.layout = layout
        self.cfg = cfg
        self.belief: Optional[ekf.BeliefState] = None
        self.process_noise = ekf.accumulated_process_noise(
            layout, cfg.ekf_predict_steps, clock_rw_sigma=cfg.clock_rw_sigma
        )
        self._vel_seeded = False

    def _position_measurement(self, meas: EpochMeasurements) -> Optional[np.ndarray]:
        if self.coupling == "lc":
            return meas.fix_pos if meas.fix_available else None
        if len(meas.sats) >= 5:
            try:
                pos, _ = single_epoch_wls(
                    meas.sats, self.cfg.weighting, initial=self.belief.mean[POS]
                )
                return pos
            except GeometryError:
                return None
        return None

    def _initialize(self, meas: EpochMeasurements) -> ekf.BeliefState:
        mean = self.layout.zeros()
        if self.coupling == "lc" and meas.fix_available:
            mean[POS] = meas.fix_pos
        elif meas.sats:
            pos, clocks = single_epoch_wls(meas.sats, self.cfg.weighting)
            mean[POS] = pos
            if self.layout.has_clock:
                for c, value in clocks.items():
                    if c in self.layout.constellations:
                        mean[self.layout.clock_index(c)] = value
        else:
            raise GeometryError("cannot initialize: no fix and no satellites")
        return ekf.BeliefState(mean, ekf.initial_covariance(self.layout), self.layout)

    def step(self, meas: EpochMeasurements) -> np.ndarray:
        if self.belief is None:
            self.belief = self._initialize(meas)
            return self.belief.mean.copy()
        if not self._vel_seeded:
            # receiver-style two-point velocity seed: difference the first
            # two position solutions instead of starting blind from zero
            self._vel_seeded = True
            z = self._position_measurement(meas)
            if z is not None:
                self.belief.mean[VEL] = (z - self.belief.mean[POS]) / meas.dt
        geo = ecef_to_geodetic(self.belief.mean[POS])
        accel_ecef = body_accel_to_ecef(
            meas.accel_body_mean, self.belief.mean[BIAS], meas.attitude, geo
        )
        belief = ekf.predict(self.belief, accel_ecef, meas.dt, self.process_noise)
        if self.coupling == "lc":
            if meas.fix_available:
                r = lc_fix_covariance(meas.fix_hdop, self.cfg.weighting.s_user)
                belief = ekf.update_lc(belief, meas.fix_pos, r)
        else:
            if meas.sats:
                r = tc_covariance(meas.sats, self.cfg.weighting)
                belief = ekf.update_tc(belief, meas.sats, r)
        self.belief = belief
        return belief.mean.copy()


def _ensure_fixes(ds: Dataset, weighting: WeightingParams) -> None:
    if not any(e.fix_available for e in ds.epochs):
        generate_lc_fixes(ds.epochs, weighting)


def run_estimator(ds: Dataset, cfg: RunConfig) -> RunResult:
    """Run one estimator over the dataset and collect per-epoch records."""
    if cfg.coupling == "lc":
        layout = StateLayout()
        _ensure_fixes(ds, cfg.weighting)
    else:
        layout = dataset_layout(ds)

    stepper: object
    if cfg.family == "ekf":
        stepper = _EkfRunner(cfg.coupling, layout, cfg)
    else:
        # the sliding anchor approximates the marginal of the state being cut
        # off; fix-level (LC) information leaves a far wider marginal than
        # pseudorange-level (TC) information does
        if cfg.coupling == "lc":
            prior_pos_var, prior_vel_var = 25.0, 1.0
        else:
            prior_pos_var, prior_vel_var = 1.0, 0.1
        fgo_cfg = FgoConfig(
            mode=cfg.coupling,
            window_size=cfg.window,
            weighting=cfg.weighting,
            clock_rw_sigma=cfg.clock_rw_sigma,
            cov_scale=cfg.cov_scale,
            prior_pos_var=prior_pos_var,
            prior_vel_var=prior_vel_var,
            lm=cfg.lm,
        )
        stepper = FgoEstimator(fgo_cfg, layout)

    records: list[EpochRecord] = []
    obs_residuals: list[ObsResidual] = []
    for k, meas in enumerate(ds.epochs):
        t0 = time.perf_counter()
        if cfg.family == "ekf":
            state = stepper.step(meas)
            solve_time = time.perf_counter() - t0
        else:
            result = stepper.step(meas)
            state = result.state
            solve_time = result.solve_time

        if cfg.coupling == "lc":
            residual = (
                lc_residual(meas.fix_pos, state) if meas.fix_available else float("nan")
            )
        else:
            residual = (
                tc_residual(meas.sats, state, layout) if meas.sats else float("nan")
            )
            if meas.sats:
                raw = pseudorange_residuals(meas.sats, state, layout)
                for sat, value in zip(meas.sats, raw):
                    obs_residuals.append(
                        ObsResidual(meas.t, sat.sat_id, sat.constellation, float(value), sat.nlos_truth)
                    )

        records.append(
            EpochRecord(
                epoch=meas.t,
                est_pos=state[POS].copy(),
                truth_pos=ds.truth_pos[k].copy(),
                err_2d=_err2d(ds, state, k),
                residual=residual,
                solve_time=solve_time,
            )
        )

    return RunResult(cfg.estimator, records, obs_residuals, summarize(records))


def _err2d(ds: Dataset, state: np.ndarray, k: int) -> float:
    from .residual_analysis import error_2d

    return error_2d(state[POS], ds.truth_pos[k], ds.ref)


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
    """Window-size sweep of the TC factor-graph estimator."""
    from .residual_analysis import window_sweep

    base = base or RunConfig()

    def run_one(size):
        return run_estimator(ds, replace(base, estimator="fgo-tc", window=size)).records

    return window_sweep(run_one, list(sizes))
