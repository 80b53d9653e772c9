"""Measurement covariance models.

Loosely coupled position fixes are weighted by HDOP times a user-equivalent
range error; tightly coupled pseudoranges are weighted per satellite from
elevation and SNR. The process-side factor covariances (motion model, INS)
are fixed diagonals taken from the inertial unit specification.

The pseudorange model itself, :func:`pseudorange_rows`, lives here too, next
to the observation type it reads, so that the filter, the factor graph and
the residual analysis all evaluate the same one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .frames import ecef_to_geodetic, rotation_global_from_local
from .types import Constellation, constellations_present


class GeometryError(ValueError):
    """Satellite geometry too degenerate for the requested computation."""


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
    """Satellite positions ``(m, 3)``, pseudoranges and state clock columns of ``sats``.

    ``clock_index`` maps a constellation to the state column of its clock bias.
    """
    sat_pos = np.array([s.sat_pos for s in sats], dtype=float).reshape(-1, 3)
    pseudorange = np.array([s.pseudorange for s in sats], dtype=float)
    clock_col = np.array([clock_index(s.constellation) for s in sats], dtype=int)
    return sat_pos, pseudorange, clock_col


def pseudorange_rows(
    sat_pos: np.ndarray,
    pseudorange: np.ndarray,
    clock_col: np.ndarray,
    slot,
    x: np.ndarray,
    jacobian: bool,
):
    """Stacked pseudorange model: row ``i`` measures satellite ``sat_pos[i]``
    from state ``x[slot[i]]`` (``x`` is ``(slots, dim)``; a scalar ``slot``
    applies to every row), with its clock bias in column ``clock_col[i]``.

    Returns the raw residuals ``pseudorange - range - clock`` and, if
    ``jacobian``, their Jacobian rows with respect to each row's own state:
    the line-of-sight unit vector on position and -1 on the clock (None
    otherwise). Raises GeometryError when a satellite coincides with its
    receiver.
    """
    los = sat_pos - x[slot, 0:3]
    rng = np.sqrt(np.einsum("ij,ij->i", los, los))
    if (rng == 0.0).any():
        raise GeometryError("a satellite coincides with the receiver")
    resid = pseudorange - rng - x[slot, clock_col]
    jac = None
    if jacobian:
        jac = np.zeros((rng.size, x.shape[1]))
        jac[:, 0:3] = los / rng[:, None]
        jac[np.arange(rng.size), clock_col] = -1.0
    return resid, jac


def lc_fix_covariance(hdop: float, s_user: float) -> np.ndarray:
    """Diagonal variances for a position fix: (hdop * s_user)^2 per axis."""
    if hdop <= 0:
        raise ValueError("hdop must be positive")
    return np.full(3, (hdop * s_user) ** 2)


def compute_hdop(sats: Sequence[SatObservation], receiver: np.ndarray) -> float:
    """Horizontal dilution of precision from the line-of-sight geometry.

    The geometry matrix holds unit line-of-sight vectors in the ENU frame at
    the receiver, augmented with one clock column per constellation present.
    """
    if len(sats) < 4:
        raise GeometryError(f"need at least 4 satellites, got {len(sats)}")
    receiver = np.asarray(receiver, dtype=float)
    enu_rot = rotation_global_from_local(ecef_to_geodetic(receiver)).T
    consts = constellations_present(sats)
    los = np.array([s.sat_pos for s in sats]) - receiver
    rng = np.sqrt(np.einsum("ij,ij->i", los, los))
    if np.any(rng == 0.0):
        sat = sats[int(np.argmin(rng))]
        raise GeometryError(f"satellite {sat.sat_id} coincides with receiver")
    g = np.zeros((len(sats), 3 + len(consts)))
    g[:, :3] = (los / rng[:, None]) @ enu_rot.T
    g[np.arange(len(sats)), [3 + consts.index(s.constellation) for s in sats]] = 1.0
    gtg = g.T @ g
    if np.linalg.cond(gtg) > 1e12:
        raise GeometryError("singular satellite geometry")
    cov = np.linalg.inv(gtg)
    return math.sqrt(cov[0, 0] + cov[1, 1])


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
    """Motion-model factor variances: position (m^2) then accel bias ((m/s^2)^2)."""
    return np.array([0.3**2] * 3 + [0.01**2] * 3)


def ins_cov() -> np.ndarray:
    """INS velocity-factor variances ((m/s)^2)."""
    return np.array([0.15**2] * 3)
