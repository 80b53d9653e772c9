"""Coordinate frames: geodetic/ECEF/ENU conversions and body-to-ECEF rotations.

Conventions
-----------
* Geodetic angles are radians, heights are meters above the WGS84 ellipsoid.
* The local frame is ENU (east, north, up) at a geodetic reference point.
* Attitude is intrinsic Z-Y-X: yaw about z, then pitch about y, then roll
  about x, composed as Rz(yaw) @ Ry(pitch) @ Rx(roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# WGS84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)


@dataclass(frozen=True)
class Geodetic:
    """Geodetic position: latitude/longitude in radians, height in meters."""

    lat: float
    lon: float
    height: float = 0.0

    def __post_init__(self) -> None:
        if not (-math.pi / 2 <= self.lat <= math.pi / 2):
            raise ValueError(f"latitude {self.lat} outside [-pi/2, pi/2]")
        if not (-math.pi < self.lon <= math.pi):
            raise ValueError(f"longitude {self.lon} outside (-pi, pi]")

    @classmethod
    def from_degrees(cls, lat_deg: float, lon_deg: float, height: float = 0.0) -> "Geodetic":
        return cls(math.radians(lat_deg), math.radians(lon_deg), height)


@dataclass(frozen=True)
class EulerAngles:
    """Yaw/pitch/roll in radians."""

    yaw: float
    pitch: float
    roll: float


def rotation_local_from_body(att: EulerAngles) -> np.ndarray:
    """Rotation taking body-frame vectors to the local (ENU) frame.

    Composed as Rz(yaw) @ Ry(pitch) @ Rx(roll).
    """
    ca, sa = math.cos(att.yaw), math.sin(att.yaw)
    cb, sb = math.cos(att.pitch), math.sin(att.pitch)
    cg, sg = math.cos(att.roll), math.sin(att.roll)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


def rotation_global_from_local(geo: Geodetic) -> np.ndarray:
    """Rotation taking local ENU vectors at ``geo`` to the ECEF frame.

    Columns are the east, north and up unit vectors expressed in ECEF.
    """
    sphi, cphi = math.sin(geo.lat), math.cos(geo.lat)
    slam, clam = math.sin(geo.lon), math.cos(geo.lon)
    return np.array(
        [
            [-slam, -sphi * clam, cphi * clam],
            [clam, -sphi * slam, cphi * slam],
            [0.0, cphi, sphi],
        ]
    )


def geodetic_to_ecef(geo: Geodetic) -> np.ndarray:
    """WGS84 geodetic coordinates to an ECEF position vector (meters)."""
    sphi, cphi = math.sin(geo.lat), math.cos(geo.lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sphi * sphi)
    return np.array(
        [
            (n + geo.height) * cphi * math.cos(geo.lon),
            (n + geo.height) * cphi * math.sin(geo.lon),
            (n * (1.0 - WGS84_E2) + geo.height) * sphi,
        ]
    )


def ecef_to_geodetic(p: np.ndarray, max_iters: int = 10, tol: float = 1e-12) -> Geodetic:
    """ECEF position to WGS84 geodetic via a fixed-point latitude iteration.

    Raises ValueError for the degenerate zero-norm input.
    """
    p = np.asarray(p, dtype=float)
    x, y, z = p
    r = math.hypot(x, y)
    if r == 0.0 and z == 0.0:
        raise ValueError("zero-norm ECEF vector has no geodetic image")
    lon = math.atan2(y, x)
    # Start from the spherical latitude; the iteration converges in a few
    # steps anywhere near the Earth's surface.
    lat = math.atan2(z, r * (1.0 - WGS84_E2))
    for _ in range(max_iters):
        n, height = _height(lat, r, z)
        new_lat = math.atan2(z, r * (1.0 - WGS84_E2 * n / (n + height)))
        if abs(new_lat - lat) < tol:
            lat = new_lat
            break
        lat = new_lat
    _, height = _height(lat, r, z)
    lat = min(max(lat, -math.pi / 2), math.pi / 2)
    return Geodetic(lat, lon, height)


def _height(lat: float, r: float, z: float) -> tuple[float, float]:
    """Prime-vertical radius and ellipsoidal height at latitude ``lat`` of
    the point at distance ``r`` from the polar axis and height ``z`` above
    the equator: the cosine form below 45 degrees, the sine form above."""
    sphi = math.sin(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sphi * sphi)
    if abs(lat) < math.pi / 4:
        return n, r / math.cos(lat) - n
    return n, z / sphi - n * (1.0 - WGS84_E2)


def _height_array(lat: np.ndarray, r: np.ndarray, z: np.ndarray):
    """Prime-vertical radius and ellipsoidal height at latitudes ``lat``, with
    the same branch on ``|lat| < pi/4`` as :func:`_height`."""
    sphi = np.sin(lat)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sphi * sphi)
    low = np.abs(lat) < math.pi / 4
    height = np.empty_like(lat)
    height[low] = r[low] / np.cos(lat[low]) - n[low]
    height[~low] = z[~low] / sphi[~low] - n[~low] * (1.0 - WGS84_E2)
    return n, height


def ecef_to_geodetic_array(p: np.ndarray, max_iters: int = 10, tol: float = 1e-12):
    """Array form of :func:`ecef_to_geodetic` for an ``(N, 3)`` stack of points.

    Returns latitude, longitude and height arrays. Each element runs the
    scalar fixed-point iteration and stops updating once its own step falls
    below ``tol``. Raises ValueError if any point is the zero vector.
    """
    p = np.asarray(p, dtype=float).reshape(-1, 3)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    r = np.hypot(x, y)
    if np.any((r == 0.0) & (z == 0.0)):
        raise ValueError("zero-norm ECEF vector has no geodetic image")
    lon = np.arctan2(y, x)
    lat = np.arctan2(z, r * (1.0 - WGS84_E2))
    active = np.ones(lat.size, dtype=bool)
    for _ in range(max_iters):
        if not active.any():
            break
        lat_a, r_a, z_a = lat[active], r[active], z[active]
        n, height = _height_array(lat_a, r_a, z_a)
        new_lat = np.arctan2(z_a, r_a * (1.0 - WGS84_E2 * n / (n + height)))
        lat[active] = new_lat
        active[active] = ~(np.abs(new_lat - lat_a) < tol)
    _, height = _height_array(lat, r, z)
    return np.clip(lat, -math.pi / 2, math.pi / 2), lon, height


def global_to_local_array(lat: np.ndarray, lon: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ECEF vectors ``v`` (``(..., 3)``) in the ENU frames at ``lat``/``lon``.

    Elementwise form of ``rotation_global_from_local(geo).T @ v``; ``lat`` and
    ``lon`` broadcast against ``v[..., 0]``.
    """
    sphi, cphi = np.sin(lat), np.cos(lat)
    slam, clam = np.sin(lon), np.cos(lon)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    east = -slam * x + clam * y
    north = -sphi * clam * x + -sphi * slam * y + cphi * z
    up = cphi * clam * x + cphi * slam * y + sphi * z
    return np.stack((east, north, up), axis=-1)


def enu_to_ecef(ref: Geodetic, enu: np.ndarray) -> np.ndarray:
    """ECEF point of the ENU coordinates ``enu`` in the frame anchored at ``ref``."""
    return geodetic_to_ecef(ref) + rotation_global_from_local(ref) @ np.asarray(enu, dtype=float)


def body_accel_to_ecef(
    raw: np.ndarray,
    bias: np.ndarray,
    att: EulerAngles,
    geo: Geodetic,
) -> np.ndarray:
    """Transform a body-frame specific force into the ECEF frame.

    The accelerometer bias is removed in the body frame before rotating
    through the local and global frames.
    """
    corrected = np.asarray(raw, dtype=float) - np.asarray(bias, dtype=float)
    return rotation_global_from_local(geo) @ (rotation_local_from_body(att) @ corrected)
