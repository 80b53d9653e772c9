"""Extended Kalman filter steps shared by the LC and TC integrations.

The state is position and velocity in ECEF, plus one receiver clock bias per
constellation in the tightly coupled variant. The prediction moves the state
by :func:`noise_models.transition`, the one process model the factor graph's
prediction and edges read too, with its Jacobian F; the process noise that
pairs with it and the initial covariance come from :mod:`noise_models` as
well. An update takes its gain from one LAPACK ``dpbsv`` call
(:func:`nls_solver.solve_spd`), the banded Cholesky solve the factor graph's
windows use, and its covariance in Joseph form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise_models import (
    GeometryError,
    SatObservation,
    default_process_noise,
    initial_covariance,  # the filter's callers start it from ekf.initial_covariance
    pseudorange_jacobian,
    pseudorange_rows,
    stack_pseudoranges,
    transition,
    transition_jacobian,
)
from .nls_solver import solve_spd
from .types import POS, StateLayout, is_count


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


def accumulated_process_noise(layout: StateLayout, steps: int, dt_total: float) -> np.ndarray:
    """Process noise for one epoch of ``dt_total`` seconds predicted as
    ``steps`` sub-predictions; ``steps`` must be an integer >= 1.

    Filtering at the INS rate re-applies the per-prediction noise every
    sample; velocity noise injected early in the epoch also integrates into
    position, producing position/velocity cross terms.
    """
    if not is_count(steps):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    q = np.diag(default_process_noise(layout))
    n = int(steps)
    dt_s = dt_total / n
    # noise injected k sub-steps before the epoch's end reaches it through
    # F^k = I + k dt_s E (E = F(1) - I, E^2 = 0): sums of k and k^2, k < n
    e = transition_jacobian(1.0, layout.dim) - np.eye(layout.dim)
    eq = e @ q
    sum_k = n * (n - 1) / 2.0
    sum_k2 = (n - 1) * n * (2 * n - 1) / 6.0
    cross = eq * dt_s * sum_k
    return q * n + eq @ e.T * dt_s**2 * sum_k2 + (cross + cross.T)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def predict(
    b: BeliefState,
    accel_ecef: np.ndarray,
    dt: float,
    process_noise: np.ndarray | None = None,
) -> BeliefState:
    """The mean moves by :func:`noise_models.transition` over ``dt`` and the
    covariance to ``F P F^T + Q``, F its :func:`noise_models.transition_jacobian`."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    f = transition_jacobian(dt, b.layout.dim)
    mean = b.mean + transition(b.mean, accel_ecef, dt)
    q = default_process_noise(b.layout) if process_noise is None else np.asarray(process_noise)
    q_mat = np.diag(q) if q.ndim == 1 else q
    cov = _symmetrize(f @ b.cov @ f.T + q_mat)
    return BeliefState(mean, cov, b.layout)


def _kalman_update(b: BeliefState, h: np.ndarray, innovation: np.ndarray, r_diag: np.ndarray):
    """The update by observation rows ``h`` with ``innovation`` and
    independent noise of variances ``r_diag``, one per row.

    ``K = P H^T S^-1`` with ``S = H P H^T + R``, and the covariance in Joseph
    form, ``(I - K H) P (I - K H)^T + K R K^T``. Raises ValueError for a
    non-finite or non-positive variance, and GeometryError when S is not
    positive definite.
    """
    r = np.asarray(r_diag, dtype=float)
    if r.shape != (len(h),):
        raise ValueError(f"{len(h)} observation rows need as many variances, got shape {r.shape}")
    if not (np.isfinite(r) & (r > 0.0)).all():
        raise ValueError(f"a non-finite or non-positive variance among {r}")
    pht = b.cov @ h.T
    s = h @ pht
    s.flat[:: len(s) + 1] += r
    k = solve_spd(s, pht)
    if k is None:
        raise GeometryError("innovation covariance is not positive definite")
    mean = b.mean + k @ innovation
    ikh = np.eye(b.layout.dim) - k @ h
    cov = _symmetrize(ikh @ b.cov @ ikh.T + (k * r) @ k.T)
    return BeliefState(mean, cov, b.layout)


def update_lc(b: BeliefState, fix: np.ndarray, r_diag: np.ndarray) -> BeliefState:
    """Position-fix update with observation matrix [I3 | 0] and the fix's
    per-axis variances ``r_diag``."""
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
    innovation, unit = pseudorange_rows(*arrays, b.mean)
    jac = pseudorange_jacobian(unit, arrays[2], b.layout.dim)
    return _kalman_update(b, -jac, innovation, r_diag)
