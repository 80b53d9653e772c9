"""Post-run metrics: ENU 2D errors, GNSS residuals and GMM fitting.

The 2D error follows the evaluation convention of scoring only the east and
north components in the local frame. Residuals compare measurements with the
optimized state: the LC residual is the norm of the position innovation, the
TC residual the signed mean of raw pseudorange residuals. Residual and error
samples are characterized with a 1-D Gaussian mixture fitted by
expectation-maximization with deterministic quantile initialization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .frames import Geodetic, rotation_global_from_local
from .noise_models import SatObservation, pseudorange_rows, stack_pseudoranges
from .types import POS, StateLayout


@dataclass
class EpochRecord:
    """One epoch of estimator output paired with truth."""

    epoch: float
    est_pos: np.ndarray
    truth_pos: np.ndarray
    err_2d: float
    residual: float
    solve_time: float


def error_2d(est: np.ndarray, truth: np.ndarray, ref: Geodetic) -> float:
    """Horizontal (east/north) position error in the ENU frame at ``ref``."""
    delta = rotation_global_from_local(ref).T @ (
        np.asarray(est, dtype=float) - np.asarray(truth, dtype=float)
    )
    return float(math.hypot(delta[0], delta[1]))


def lc_residual(fix: np.ndarray, state: np.ndarray) -> float:
    """Norm of the position innovation at the optimized state."""
    return float(np.linalg.norm(np.asarray(fix, dtype=float) - state[POS]))


def pseudorange_residuals(
    sats: Sequence[SatObservation], state: np.ndarray, layout: StateLayout
) -> np.ndarray:
    """Raw (unwhitened) pseudorange residuals at the optimized state."""
    arrays = stack_pseudoranges(sats, layout.clock_index)
    return pseudorange_rows(*arrays, 0, np.asarray(state, dtype=float)[None, :], jacobian=False)[0]


def tc_residual(sats: Sequence[SatObservation], state: np.ndarray, layout: StateLayout) -> float:
    """Signed mean of the raw pseudorange residuals."""
    if not sats:
        raise ValueError("empty satellite list")
    return float(np.mean(pseudorange_residuals(sats, state, layout)))


@dataclass(frozen=True)
class GmmComponent:
    weight: float
    mean: float
    std: float


@dataclass
class GmmModel:
    """Weighted 1-D Gaussian mixture, components sorted by mean."""

    components: tuple[GmmComponent, ...]
    ll_trace: list[float] = field(default_factory=list)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for c in self.components:
            total += (
                c.weight
                / (c.std * math.sqrt(2.0 * math.pi))
                * np.exp(-0.5 * ((x - c.mean) / c.std) ** 2)
            )
        return total

    def log_likelihood(self, samples: np.ndarray) -> float:
        return float(np.sum(np.log(self.pdf(np.asarray(samples, dtype=float)))))


@dataclass(frozen=True)
class GmmConfig:
    tol: float = 1e-6
    max_iters: int = 200
    std_floor: float = 1e-3


def _log_gaussian(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    return -0.5 * ((x - mean) / std) ** 2 - math.log(std) - 0.5 * math.log(2.0 * math.pi)


def fit_gmm(samples: Iterable[float], k: int, cfg: Optional[GmmConfig] = None) -> GmmModel:
    """Fit a k-component Gaussian mixture by EM.

    Initialization is deterministic: means at the k mid-quantiles, a shared
    global standard deviation and uniform weights. Component standard
    deviations are floored at ``cfg.std_floor``.
    """
    cfg = cfg or GmmConfig()
    x = np.sort(np.asarray(list(samples), dtype=float))
    if k < 1:
        raise ValueError("k must be >= 1")
    if np.unique(x).size < k:
        raise ValueError(f"need at least {k} distinct samples, got {np.unique(x).size}")
    n = x.size

    means = np.quantile(x, [(i + 0.5) / k for i in range(k)])
    stds = np.full(k, max(float(np.std(x)), cfg.std_floor))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    for _ in range(cfg.max_iters):
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
        stds = np.maximum(np.sqrt(np.maximum(var, 0.0)), cfg.std_floor)

        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < cfg.tol:
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
    """Mean and population std of the 2D error plus the summed solve time."""
    if not records:
        raise ValueError("no records to summarize")
    errs = np.array([r.err_2d for r in records])
    return {
        "mean_err": float(np.mean(errs)),
        "std_err": float(np.std(errs)),
        "total_time": float(sum(r.solve_time for r in records)),
        "epochs": len(records),
    }
