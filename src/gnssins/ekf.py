"""Extended Kalman filter steps shared by the LC and TC integrations.

The state is position, velocity and accelerometer bias in ECEF, plus one
receiver clock bias per constellation in the tightly coupled variant. The
prediction follows a constant-velocity model driven by the epoch's ECEF
specific force; bias and clock biases propagate as constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise_models import (
    GeometryError,
    SatObservation,
    ins_cov,
    motion_model_cov,
    pseudorange_rows,
    stack_pseudoranges,
)
from .types import BIAS, POS, VEL, StateLayout

CLOCK_RW_SIGMA = 5.0  # receiver clock random walk, meters per epoch


@dataclass
class BeliefState:
    """Gaussian belief over one state vector."""

    mean: np.ndarray
    cov: np.ndarray
    layout: StateLayout

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.layout.dim
        if self.mean.shape != (n,) or self.cov.shape != (n, n):
            raise ValueError("belief dimensions do not match layout")


def default_process_noise(layout: StateLayout) -> np.ndarray:
    """Per-epoch process noise diagonal.

    Position and bias blocks are the motion-model factor variances, the
    velocity block the INS factor variances, and clock biases random-walk
    with ``CLOCK_RW_SIGMA`` meters per epoch. The factor graph's edges use
    this same diagonal.
    """
    mm = motion_model_cov()
    q = np.empty(layout.dim)
    q[POS] = mm[:3]
    q[VEL] = ins_cov()
    q[BIAS] = mm[3:]
    if layout.has_clock:
        q[layout.clock_slice()] = CLOCK_RW_SIGMA**2
    return q


def accumulated_process_noise(
    layout: StateLayout,
    steps: int,
    dt_total: float = 1.0,
) -> np.ndarray:
    """Process noise for one epoch predicted as ``steps`` sub-predictions.

    Filtering at the INS rate re-applies the per-prediction noise every
    sample; velocity noise injected early in the epoch also integrates into
    position, producing position/velocity cross terms.
    """
    q = default_process_noise(layout)
    n = max(int(steps), 1)
    dt_s = dt_total / n
    qp, qv = q[POS], q[VEL]
    out = np.diag(q * n)
    # sum over remaining-propagation of each injection:
    # sum k^2 and sum k for k = 0..n-1
    sum_k = n * (n - 1) / 2.0
    sum_k2 = (n - 1) * n * (2 * n - 1) / 6.0
    for axis in range(3):
        out[axis, axis] += qv[axis] * dt_s**2 * sum_k2
        out[axis, 3 + axis] += qv[axis] * dt_s * sum_k
        out[3 + axis, axis] += qv[axis] * dt_s * sum_k
    return out


def initial_covariance(layout: StateLayout) -> np.ndarray:
    """Diagonal covariance for a freshly initialized filter."""
    p = np.empty(layout.dim)
    p[POS] = 100.0
    p[VEL] = 10.0
    p[BIAS] = 1e-2
    if layout.has_clock:
        p[layout.clock_slice()] = 100.0**2
    return np.diag(p)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def predict(
    b: BeliefState,
    accel_ecef: np.ndarray,
    dt: float,
    process_noise: np.ndarray | None = None,
) -> BeliefState:
    """Constant-velocity prediction with the epoch's ECEF specific force."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    accel_ecef = np.asarray(accel_ecef, dtype=float)
    n = b.layout.dim
    f = np.eye(n)
    f[0:3, 3:6] = dt * np.eye(3)
    mean = b.mean.copy()
    mean[POS] = b.mean[POS] + b.mean[VEL] * dt
    mean[VEL] = b.mean[VEL] + accel_ecef * dt
    q = default_process_noise(b.layout) if process_noise is None else np.asarray(process_noise)
    q_mat = np.diag(q) if q.ndim == 1 else q
    cov = _symmetrize(f @ b.cov @ f.T + q_mat)
    return BeliefState(mean, cov, b.layout)


def _kalman_update(b: BeliefState, h: np.ndarray, innovation: np.ndarray, r_diag: np.ndarray):
    r = np.diag(np.asarray(r_diag, dtype=float))
    s = h @ b.cov @ h.T + r
    try:
        k = np.linalg.solve(s, h @ b.cov).T
    except np.linalg.LinAlgError as exc:
        raise GeometryError("innovation covariance is singular") from exc
    mean = b.mean + k @ innovation
    ikh = np.eye(b.layout.dim) - k @ h
    cov = _symmetrize(ikh @ b.cov @ ikh.T + k @ r @ k.T)
    return BeliefState(mean, cov, b.layout)


def update_lc(b: BeliefState, fix: np.ndarray, r_diag: np.ndarray) -> BeliefState:
    """Position-fix update with observation matrix [I3 | 0]."""
    r_diag = np.asarray(r_diag, dtype=float)
    if np.any(r_diag <= 0):
        raise ValueError("fix covariance must be positive")
    h = np.zeros((3, b.layout.dim))
    h[:, 0:3] = np.eye(3)
    innovation = np.asarray(fix, dtype=float) - b.mean[POS]
    return _kalman_update(b, h, innovation, r_diag)


def update_tc(
    b: BeliefState, sats: Sequence[SatObservation], r_diag: np.ndarray
) -> BeliefState:
    """Pseudorange update: one observation row per satellite.

    The innovation is the pseudorange residual at the prior mean, and ``H`` is
    minus the residual's Jacobian.
    """
    if not sats:
        raise ValueError("empty satellite list")
    arrays = stack_pseudoranges(sats, b.layout.clock_index)
    innovation, jac = pseudorange_rows(*arrays, 0, b.mean[None, :], jacobian=True)
    return _kalman_update(b, -jac, innovation, r_diag)
