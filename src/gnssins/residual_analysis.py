"""Post-run metrics: ENU 2D errors, GNSS residuals and GMM fitting.

The 2D error follows the evaluation convention of scoring only the east and
north components in the local frame. Residuals compare measurements with the
optimized state: the LC residual is the norm of the position innovation, the
TC residual the signed mean of raw pseudorange residuals. Residual and error
samples are characterized with a 1-D Gaussian mixture (the
:class:`noise_models.GmmModel` the simulator draws NLOS errors from) fitted
by expectation-maximization with deterministic quantile initialization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .frames import Geodetic, rotation_global_from_local
from .noise_models import GmmComponent, GmmModel, SatObservation, pseudorange_rows, stack_pseudoranges
from .types import POS, StateLayout, StepResult


@dataclass(kw_only=True)
class EpochRecord(StepResult):
    """One epoch's whole :class:`types.StepResult` scored against truth, so a
    field added to ``StepResult`` reaches the records. ``residuals`` holds the
    epoch's raw pseudorange residuals at ``state``, one per satellite in the
    epoch's order (None for LC and for an epoch without satellites);
    ``residual`` is its scalar GNSS residual, NaN when the epoch had nothing
    to score."""

    epoch: float
    truth_pos: np.ndarray
    err_2d: float
    residual: float

    @property
    def est_pos(self) -> np.ndarray:
        return self.state[POS]


@functools.lru_cache(maxsize=1)
def _ecef_to_enu(ref: Geodetic) -> np.ndarray:
    """Rotation from ECEF to ENU at ``ref``, read-only. A run scores every
    epoch at its dataset's one reference, so the last one is kept."""
    rotation = rotation_global_from_local(ref).T
    rotation.flags.writeable = False
    return rotation


def error_2d(est: np.ndarray, truth: np.ndarray, ref: Geodetic) -> float:
    """Horizontal (east/north) position error in the ENU frame at ``ref``."""
    delta = _ecef_to_enu(ref) @ (np.asarray(est, dtype=float) - np.asarray(truth, dtype=float))
    return float(math.hypot(delta[0], delta[1]))


def lc_residual(fix: np.ndarray, state: np.ndarray) -> float:
    """Norm of the position innovation at the optimized state."""
    return float(np.linalg.norm(np.asarray(fix, dtype=float) - state[POS]))


def pseudorange_residuals(
    sats: Sequence[SatObservation], state: np.ndarray, layout: StateLayout
) -> np.ndarray:
    """Raw (unwhitened) pseudorange residuals at the optimized state."""
    arrays = stack_pseudoranges(sats, layout.clock_index)
    return pseudorange_rows(*arrays, np.asarray(state, dtype=float))[0]


def tc_residual(residuals: np.ndarray) -> float:
    """Signed mean of an epoch's raw pseudorange residuals
    (:func:`pseudorange_residuals`)."""
    if len(residuals) == 0:
        raise ValueError("no pseudorange residuals")
    return float(residuals.sum()) / len(residuals)


GMM_TOL = 1e-6  # EM stops once the log-likelihood moves less than this
GMM_MAX_ITERS = 200
GMM_STD_FLOOR = 1e-3  # no component's standard deviation falls below this


def _log_gaussian(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    return -0.5 * ((x - mean) / std) ** 2 - math.log(std) - 0.5 * math.log(2.0 * math.pi)


def fit_gmm(samples: Iterable[float], k: int) -> GmmModel:
    """Fit a k-component Gaussian mixture by EM.

    Initialization is deterministic: means at the k mid-quantiles, a shared
    global standard deviation and uniform weights. Component standard
    deviations are floored at ``GMM_STD_FLOOR``. Raises ValueError for
    ``k < 1``, a NaN or infinite sample, or fewer than ``k`` distinct samples.
    """
    x = np.sort(np.asarray(list(samples), dtype=float))
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.isfinite(x).all():
        raise ValueError(f"samples must be finite, got {x[~np.isfinite(x)][0]}")
    if np.unique(x).size < k:
        raise ValueError(f"need at least {k} distinct samples, got {np.unique(x).size}")
    n = x.size

    means = np.quantile(x, [(i + 0.5) / k for i in range(k)])
    stds = np.full(k, max(float(np.std(x)), GMM_STD_FLOOR))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    for _ in range(GMM_MAX_ITERS):
        # E step in log space
        log_resp = np.stack(
            [math.log(weights[j]) + _log_gaussian(x, means[j], stds[j]) for j in range(k)]
        )
        log_norm = np.logaddexp.reduce(log_resp, axis=0)
        ll = float(np.sum(log_norm))
        trace.append(ll)
        resp = np.exp(log_resp - log_norm)

        # M step
        nj = np.maximum(resp.sum(axis=1), 1e-300)
        weights = nj / n
        means = (resp @ x) / nj
        var = (resp @ (x**2)) / nj - means**2
        stds = np.maximum(np.sqrt(np.maximum(var, 0.0)), GMM_STD_FLOOR)

        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < GMM_TOL:
            break

    order = np.argsort(means)
    components = tuple(
        GmmComponent(float(weights[j]), float(means[j]), float(stds[j])) for j in order
    )
    return GmmModel(components=components, ll_trace=trace)


def match_components(model: GmmModel, target_means: Sequence[float]) -> list[GmmComponent]:
    """Assign fitted components to targets minimizing total |mean difference|."""
    k = len(target_means)
    if len(model.components) != k:
        raise ValueError("component count mismatch")
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(
            abs(model.components[perm[i]].mean - target_means[i]) for i in range(k)
        )
        if cost < best_cost:
            best, best_cost = perm, cost
    return [model.components[i] for i in best]


def summarize(records: Sequence[EpochRecord]) -> dict:
    """A run's summary, named as in every summary file: mean and population
    std of the 2D error, summed solve time, epochs, epochs whose solve did not
    converge and mean LM iterations per epoch (0 for a filter)."""
    if not records:
        raise ValueError("no records to summarize")
    errs = np.array([r.err_2d for r in records])
    return {
        "mean_err_m": float(np.mean(errs)),
        "std_err_m": float(np.std(errs)),
        "total_time_s": float(sum(r.solve_time for r in records)),
        "epochs": len(records),
        "unconverged_epochs": sum(not r.converged for r in records),
        "lm_iterations_per_epoch": float(np.mean([r.iterations for r in records])),
    }
