"""The noise model both estimator families read.

Loosely coupled position fixes are weighted by HDOP times a user-equivalent
range error; tightly coupled pseudoranges are weighted per satellite from
elevation and SNR. The process-side factor covariances (motion model, INS)
are fixed diagonals taken from the inertial unit specification. Both
estimator families read the process model (:func:`transition`), the per-epoch
process noise that pairs with it and the first state's covariance from here,
and the NLOS error is a :class:`GmmModel` that the simulator draws from and
the residual analysis fits.

The pseudorange model itself, :func:`pseudorange_rows`, lives here too, next
to the observation type it reads, so that the filter, the factor graph and
the residual analysis all evaluate the same one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .frames import MIN_RADIUS_M, ecef_to_geodetic_array, global_to_local_array
from .types import POS, VEL, Constellation, StateLayout, check_numbers, constellations_present


class GeometryError(ValueError):
    """Satellite geometry too degenerate for the requested computation."""


SINGULAR_COND = 1e12  # a matrix whose condition number exceeds this is singular
CLOCK_RW_SIGMA = 5.0  # receiver clock random walk, meters per epoch


@dataclass(frozen=True)
class WeightingParams:
    """Elevation/SNR weighting constants plus the LC range-error scale.

    Defaults follow the goGPS-style model: SNR threshold ``T`` (dB-Hz),
    shape constants ``a``, ``big_a`` and ``big_f``, and the user-equivalent
    range error ``s_user`` (meters) used for position-fix covariance.
    """

    T: float = 45.0
    a: float = 32.0
    big_a: float = 30.0
    big_f: float = 10.0
    s_user: float = 10.0

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.big_f == self.T:
            raise ValueError("F and T must differ")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.s_user <= 0:
            raise ValueError("s_user must be positive")


@dataclass
class SatObservation:
    """One satellite pseudorange observation at a GNSS epoch."""

    sat_id: str
    constellation: Constellation
    sat_pos: np.ndarray
    pseudorange: float
    snr: float
    elevation: float
    azimuth: Optional[float] = None
    nlos_truth: Optional[bool] = None

    def __post_init__(self) -> None:
        # a copy, so the observation never aliases a caller's array
        self.sat_pos = np.array(self.sat_pos, dtype=float)
        if not np.isfinite(self.sat_pos).all():
            raise ValueError(f"satellite {self.sat_id}: non-finite position {self.sat_pos}")
        # no satellite orbits inside the Earth, where every WLS solve starts
        if self.sat_pos @ self.sat_pos < MIN_RADIUS_M**2:
            where = f"within {MIN_RADIUS_M / 1e3:g} km of the Earth's centre"
            raise ValueError(f"satellite {self.sat_id}: position {self.sat_pos} {where}")
        if not (math.isfinite(self.pseudorange) and math.isfinite(self.snr)):
            raise ValueError(
                f"satellite {self.sat_id}: non-finite pseudorange {self.pseudorange}"
                f" or snr {self.snr}"
            )
        if self.azimuth is not None and not math.isfinite(self.azimuth):
            raise ValueError(f"satellite {self.sat_id}: non-finite azimuth {self.azimuth}")
        if not 0.0 < self.elevation <= math.pi / 2:
            raise ValueError(f"elevation {self.elevation} outside (0, pi/2]")
        if self.pseudorange <= 0:
            raise ValueError("pseudorange must be positive")


def stack_pseudoranges(
    sats: Sequence[SatObservation], clock_index: Callable[[Constellation], int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Satellite positions ``(3, m)`` (one column per satellite), pseudoranges
    and state clock columns of ``sats``.

    ``clock_index`` maps a constellation to the state column of its clock bias.
    """
    sat_pos = np.array([s.sat_pos for s in sats], dtype=float).reshape(-1, 3).T.copy()
    pseudorange = np.array([s.pseudorange for s in sats], dtype=float)
    clock_col = np.array([clock_index(s.constellation) for s in sats], dtype=int)
    return sat_pos, pseudorange, clock_col


def pseudorange_rows(
    sat_pos: np.ndarray, pseudorange: np.ndarray, clock_col: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked pseudorange model: row ``i`` measures the satellite at ECEF
    ``sat_pos[..., :, i]`` with range ``pseudorange[i]`` from the state whose
    clock bias is ``x.flat[clock_col[i]]``.

    Two layouts share the code: rows ``(m,)`` (satellites ``(3, m)``) from one
    state ``x`` of shape ``(dim,)``, where ``clock_col`` holds state columns,
    or rows padded per slot to ``(slots, M)`` (satellites ``(slots, 3, M)``)
    from one state per slot, ``x`` of shape ``(slots, dim)``, where a row of
    slot ``k`` has its clock at ``k * dim + column``; each slot's state is
    broadcast over its rows. The coordinates sit before the rows, so every
    operation runs along the rows.

    Returns the raw residuals ``pseudorange - range - clock`` and the unit
    lines of sight (receiver to satellite), shaped like ``sat_pos``. These
    are the residuals' Jacobian on position; on the clock column it is -1
    (:func:`pseudorange_jacobian`). Raises GeometryError when a satellite
    coincides with its receiver.
    """
    los = sat_pos - x[..., 0:3, None]
    rng = np.sqrt(np.einsum("...ij,...ij->...j", los, los))
    if np.count_nonzero(rng) < rng.size:
        raise GeometryError("a satellite coincides with the receiver")
    los /= rng[..., None, :]
    return pseudorange - rng - x.take(clock_col), los


def pseudorange_jacobian(unit: np.ndarray, clock_col: np.ndarray, dim: int) -> np.ndarray:
    """Full ``(m, dim)`` Jacobian rows of single-state pseudorange residuals
    from their ``(3, m)`` unit lines of sight (:func:`pseudorange_rows`)."""
    m = unit.shape[1]
    jac = np.zeros((m, dim))
    jac[:, 0:3] = unit.T
    jac[np.arange(m), clock_col] = -1.0
    return jac


def lc_fix_covariance(hdop: float, s_user: float) -> np.ndarray:
    """Diagonal variances for a position fix: (hdop * s_user)^2 per axis."""
    if hdop <= 0:
        raise ValueError("hdop must be positive")
    return np.full(3, (hdop * s_user) ** 2)


def nonsingular(gram: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Whether each of a stack of symmetric matrices ``(E, n, n)``, restricted
    to the rows and columns ``used`` marks for it (``(E, n)`` booleans), has a
    condition number of at most :data:`SINGULAR_COND`. The matrices that use
    the same columns are judged in one call."""
    ok = np.zeros(len(gram), dtype=bool)
    for pattern in set(map(tuple, used.tolist())):
        group = (used == pattern).all(axis=1)
        cols = np.flatnonzero(pattern)
        ok[group] = np.linalg.cond(gram[group][:, cols[:, None], cols]) <= SINGULAR_COND
    return ok


def hdop_array(sat_pos: np.ndarray, clocks: np.ndarray, receiver: np.ndarray) -> np.ndarray:
    """HDOP of each epoch of a stack, the array form of :func:`compute_hdop`.

    Epoch ``k`` sees its satellites at ECEF ``sat_pos[k]`` (``(E, 3, M)``,
    the padded layout of :func:`pseudorange_rows`) from ``receiver[k]``
    (``(E, 3)``). ``clocks[k, i]`` (``(E, M, C)``) is row ``i``'s clock
    column of the geometry matrix, one-hot, and all zero on a padding row.
    An epoch's geometry matrix holds its rows' unit lines of sight in the ENU
    frame at its receiver and the clock columns of the constellations it
    sees. The HDOP is NaN where a satellite coincides with the receiver or
    ``G^T G`` fails :func:`nonsingular`.
    """
    valid = clocks.any(axis=-1)
    los = sat_pos - receiver[:, :, None]
    rng = np.sqrt(np.einsum("...ij,...ij->...j", los, los))
    at_receiver = (valid & (rng == 0.0)).any(axis=1)
    rng[~valid | (rng == 0.0)] = 1.0
    lat, lon, _ = ecef_to_geodetic_array(receiver)
    enu = global_to_local_array(lat[:, None], lon[:, None], (los / rng[:, None]).transpose(0, 2, 1))
    g = np.concatenate((enu * valid[..., None], clocks), axis=-1)
    gtg = g.transpose(0, 2, 1) @ g
    used = np.concatenate((np.ones((len(g), 3), dtype=bool), clocks.any(axis=1)), axis=1)
    ok = ~at_receiver & nonsingular(gtg, used)
    # a clock column the epoch lacks holds a unit diagonal, which leaves the
    # inverse of the others as it is
    gtg.reshape(len(g), g.shape[-1] ** 2)[:, :: g.shape[-1] + 1] += ~used
    hdop = np.full(len(g), np.nan)
    cov = np.linalg.inv(gtg[ok])
    hdop[ok] = np.sqrt(cov[:, 0, 0] + cov[:, 1, 1])
    return hdop


def compute_hdop(sats: Sequence[SatObservation], receiver: np.ndarray) -> float:
    """Horizontal dilution of precision from the line-of-sight geometry.

    The geometry matrix holds unit line-of-sight vectors in the ENU frame at
    the receiver, augmented with one clock column per constellation present
    (:func:`hdop_array` of one epoch).
    """
    if len(sats) < 4:
        raise GeometryError(f"need at least 4 satellites, got {len(sats)}")
    receiver = np.asarray(receiver, dtype=float)
    consts = constellations_present(sats)
    sat_pos, _, clock_col = stack_pseudoranges(sats, consts.index)
    hdop = float(hdop_array(sat_pos[None], np.eye(len(consts))[clock_col][None], receiver[None])[0])
    if math.isnan(hdop):
        rng = np.linalg.norm(sat_pos - receiver[:, None], axis=0)
        if np.any(rng == 0.0):
            sat = sats[int(np.argmin(rng))]
            raise GeometryError(f"satellite {sat.sat_id} coincides with receiver")
        raise GeometryError("singular satellite geometry")
    return hdop


def pseudorange_weight(el: float, snr: float, p: WeightingParams) -> float:
    """Per-satellite pseudorange variance (m^2) from elevation and SNR.

    Follows the goGPS-style model: the variance is an SNR bracket divided by
    sin^2(el), so it grows toward the horizon and grows further as the SNR
    falls below the threshold T. At or above T the bracket clamps to 1 and
    the variance reduces to 1/sin^2(el), i.e. 1 m^2 at zenith.
    """
    if not 0.0 < el <= math.pi / 2:
        raise ValueError(f"elevation {el} outside (0, pi/2]")
    sin2 = math.sin(el) ** 2
    if snr >= p.T:
        bracket = 1.0
    else:
        term = 10.0 ** (-(snr - p.T) / p.a)
        slope = (p.big_a / 10.0 ** (-(p.big_f - p.T) / p.a) - 1.0) * (snr - p.T) / (
            p.big_f - p.T
        ) + 1.0
        bracket = term * slope
    return bracket / sin2


def tc_covariance(sats: Sequence[SatObservation], p: WeightingParams) -> np.ndarray:
    """Diagonal pseudorange variances, ordered like the satellite list."""
    if not sats:
        raise ValueError("empty satellite list")
    return np.array([pseudorange_weight(s.elevation, s.snr, p) for s in sats])


def motion_model_cov() -> np.ndarray:
    """Motion-model factor variances on position (m^2)."""
    return np.array([0.3**2] * 3)


def ins_cov() -> np.ndarray:
    """INS velocity-factor variances ((m/s)^2)."""
    return np.array([0.15**2] * 3)


def default_process_noise(layout: StateLayout) -> np.ndarray:
    """Per-epoch process noise diagonal.

    The position block is the motion-model factor variances, the velocity
    block the INS factor variances, and clock biases random-walk with
    ``CLOCK_RW_SIGMA`` meters per epoch. The filter predicts with this
    diagonal and the factor graph's edges carry it.
    """
    q = np.empty(layout.dim)
    q[POS] = motion_model_cov()
    q[VEL] = ins_cov()
    if layout.has_clock:
        q[layout.clock_slice()] = CLOCK_RW_SIGMA**2
    return q


def transition(x: np.ndarray, accel_ecef: np.ndarray, dt) -> np.ndarray:
    """The increment ``f(x) - x`` of the process model both families share:
    velocity times ``dt`` on position, the ECEF specific force times ``dt`` on
    velocity, zero on clocks. For a state ``x (dim,)``, ``accel (3,)``
    and scalar ``dt``, or stacks ``(E, dim)``, ``(E, 3)`` and ``(E, 1)``."""
    out = np.empty(np.shape(x))
    out[..., VEL.stop :] = 0.0
    np.multiply(x[..., VEL], dt, out=out[..., POS])
    np.multiply(accel_ecef, dt, out=out[..., VEL])
    return out


@functools.lru_cache(maxsize=16)
def transition_jacobian(dt: float, dim: int) -> np.ndarray:
    """F, the Jacobian of ``x + transition(x, accel, dt)`` for ``dim`` states.

    Cached by ``(dt, dim)``, since a run asks for the same few on every
    epoch, and so returned read-only: every caller shares one array.
    """
    f = np.eye(dim)
    f[POS, VEL] = dt * np.eye(3)
    f.flags.writeable = False
    return f


def initial_covariance(layout: StateLayout) -> np.ndarray:
    """Diagonal covariance of a trajectory's first state, for both families."""
    p = np.empty(layout.dim)
    p[POS] = 100.0
    p[VEL] = 10.0
    if layout.has_clock:
        p[layout.clock_slice()] = 100.0**2
    return np.diag(p)


@dataclass(frozen=True)
class GmmComponent:
    weight: float
    mean: float
    std: float


@dataclass(frozen=True)
class GmmModel:
    """Weighted 1-D Gaussian mixture, components sorted by mean. Frozen, so
    that a scenario's NLOS model cannot change after its checks."""

    components: tuple[GmmComponent, ...]
    ll_trace: list[float] = field(default_factory=list)
