"""Run the four estimator variants over a dataset and collect metrics.

The four configurations are 'ekf-lc', 'ekf-tc', 'fgo-lc' and 'fgo-tc'. One
:class:`RunConfig` decides a run: its family, its coupling and, from the
coupling, its state layout (:attr:`RunConfig.layout`). Both families'
steppers (:class:`_EkfRunner`, :class:`fgo.FgoEstimator`) take that config
alone and return a :class:`types.StepResult` per epoch. Each run
yields one :class:`residual_analysis.EpochRecord` per GNSS epoch, which is
that step's whole result plus its score (truth, 2D error, GNSS residual).
A TC epoch's record keeps its raw pseudorange residuals, one per satellite
in the epoch's order, the one store the distribution analyses and
``residuals.csv`` read; they are None for an LC epoch and for an epoch
without satellites.
"""

from __future__ import annotations

import copy
import gc
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import ekf, residual_analysis
from .canyon_sim import Dataset, generate_lc_fixes
# single_epoch_wls is not called here; it stays imported only because the
# benchmark tracer wraps harness.single_epoch_wls as a call site
from .fgo import FgoEstimator, fix_hdop, initial_state, seed_velocity, single_epoch_wls
from .frames import body_accel_to_ecef, ecef_to_geodetic
from .noise_models import WeightingParams, lc_fix_covariance, tc_covariance
from .residual_analysis import (
    EpochRecord,
    lc_residual,
    pseudorange_residuals,
    summarize,
    tc_residual,
)
from .types import POS, Constellation, EpochMeasurements, StateLayout, StepResult, check_numbers

ESTIMATORS = ("ekf-lc", "ekf-tc", "fgo-lc", "fgo-tc")

# the state of a TC run: one clock per constellation, whichever a dataset holds
TC_LAYOUT = StateLayout(tuple(Constellation))


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked when made and fixed after: a changed run
    is a new config (``dataclasses.replace``), checked again, so a stepper
    built from a config keeps the family, coupling and layout it read. Its
    numbers are checked by :func:`types.check_numbers`, and ``window``
    (unless None), ``cov_scale`` and ``ekf_predict_steps`` must be > 0."""

    estimator: str = "fgo-tc"
    window: Optional[int] = 30  # epochs; None means batch
    weighting: WeightingParams = field(default_factory=WeightingParams)
    cov_scale: float = 1.0
    # the EKF predicts as INS measurements arrive, so per-epoch process noise
    # accumulates over imu_rate/gnss_rate prediction steps spanning the
    # epoch; the factor graph applies its covariances once per epoch
    ekf_predict_steps: int = 100

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}"
            )
        if not isinstance(self.weighting, WeightingParams):
            raise ValueError(f"weighting must be a WeightingParams, got {self.weighting!r}")
        check_numbers(self)
        if self.window is not None and not self.window > 0:
            raise ValueError(f"window must be >= 1 (or None for batch), got {self.window!r}")
        for name in ("cov_scale", "ekf_predict_steps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")

    @property
    def family(self) -> str:
        return self.estimator.split("-")[0]

    @property
    def coupling(self) -> str:
        return self.estimator.split("-")[1]

    @property
    def layout(self) -> StateLayout:
        """The run's state: :data:`TC_LAYOUT` when tightly coupled, else no clocks."""
        return TC_LAYOUT if self.coupling == "tc" else StateLayout()


@dataclass
class RunResult:
    """One run: its config, its per-epoch records and their :func:`summarize`."""

    config: RunConfig
    records: list[EpochRecord]
    summary: dict

    @property
    def row(self) -> dict:
        """The run's row in ``summary.json``, ``compare.*`` and ``sweep.*``."""
        window = "batch" if self.config.window is None else int(self.config.window)
        return {"estimator": self.config.estimator, "window": window, **self.summary}


class _EkfRunner:
    """Per-epoch EKF loop shared by the LC and TC variants. ``cfg.cov_scale``
    scales the initial, process and measurement noise alike: the gain, and so
    the estimate, stays and the covariance scales (criterion 9's counterpart)."""

    def __init__(self, cfg: RunConfig):
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
            mean = initial_state(meas, self.cfg)
            cov = ekf.initial_covariance(self.cfg.layout) * scale
            self.belief = ekf.BeliefState(mean, cov, self.cfg.layout)
            return StepResult(mean.copy(), time.perf_counter() - t0, message="initialized")
        if not self._vel_seeded:
            self._vel_seeded = True
            seed_velocity(self.belief.mean, meas, self.cfg)
        geo = ecef_to_geodetic(self.belief.mean[POS])
        accel_ecef = body_accel_to_ecef(meas.accel_body_mean, meas.attitude, geo)
        if meas.dt != self._noise[0]:
            q = ekf.accumulated_process_noise(self.cfg.layout, self.cfg.ekf_predict_steps, meas.dt)
            self._noise = (meas.dt, q * scale)
        belief = ekf.predict(self.belief, accel_ecef, meas.dt, self._noise[1])
        if self.cfg.coupling == "lc":
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


def make_stepper(cfg: RunConfig) -> _EkfRunner | FgoEstimator:
    """The estimator ``cfg`` names, over the state ``cfg.layout``; feed it
    epochs in time order via ``step``."""
    if cfg.family == "ekf":
        return _EkfRunner(cfg)
    return FgoEstimator(cfg)


def run_estimator(ds: Dataset, cfg: RunConfig) -> RunResult:
    """Run one estimator over the dataset and collect per-epoch records."""
    epochs = _lc_epochs(ds, cfg.weighting) if cfg.coupling == "lc" else ds.epochs
    stepper = make_stepper(cfg)

    records: list[EpochRecord] = []
    # timed as timeit times: a cyclic collection walks the whole process's
    # heap, tens of ms in a test session, and would land in the solve_time of
    # whichever epoch it interrupts. A run leaves no cyclic garbage.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for k, meas in enumerate(epochs):
            result = stepper.step(meas)
            state, raw = result.state, None
            residual = float("nan")
            if cfg.coupling == "lc":
                if meas.fix_available:
                    residual = lc_residual(meas.fix_pos, state)
            elif meas.sats:
                # a TC window hands on its pricing of the epoch's rows at the
                # returned state: its last or, after a rejected last trial,
                # the one before. The EKF, a window's start-up epoch and a
                # solve that ends on two rejected trials hand on none.
                raw = result.residuals
                if raw is None:
                    raw = pseudorange_residuals(meas.sats, state, cfg.layout)
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
    finally:
        if collecting:
            gc.enable()

    return RunResult(cfg, records, summarize(records))


def repeated(items: Sequence) -> list:
    """The items of ``items`` that an earlier one equals, in order."""
    return [x for i, x in enumerate(items) if x in items[:i]]


def compare(
    ds: Dataset, estimators: Sequence[str] = ESTIMATORS, base: Optional[RunConfig] = None
) -> dict[str, RunResult]:
    """Run one or more estimators, none repeated, over identical data."""
    if not estimators:
        raise ValueError("no estimators requested")
    if twice := repeated(estimators):
        raise ValueError(f"estimator {twice[0]!r} requested twice")
    base = base or RunConfig()
    return {name: run_estimator(ds, replace(base, estimator=name)) for name in estimators}


def sweep_windows(
    ds: Dataset, sizes: Sequence[Optional[int]], base: Optional[RunConfig] = None
) -> list[dict]:
    """Window-size sweep of the TC factor-graph estimator over identical data.

    One :attr:`RunResult.row` per size (an int, or None for batch), in the
    order given.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("no window sizes requested")
    base = base or RunConfig()
    return [run_estimator(ds, replace(base, estimator="fgo-tc", window=size)).row for size in sizes]
