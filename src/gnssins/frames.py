"""Coordinate frames: geodetic/ECEF/ENU conversions and body-to-ECEF rotations.

Conventions
-----------
* Geodetic angles are radians, heights are meters above the WGS84 ellipsoid.
* ECEF to geodetic is Vermeille's exact closed form (H. Vermeille, "An
  analytical method to transform geocentric into geodetic coordinates",
  J. Geod. 85, 2011), written once for floats and arrays. It holds outside
  the ellipsoid's evolute, so a point within ``MIN_RADIUS_M`` (100 km) of
  the Earth's centre raises ValueError.
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
MIN_RADIUS_M = 100e3  # clear of the evolute, within about 43 km of the centre


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

    The product Rz(yaw) @ Ry(pitch) @ Rx(roll), written out entry by entry.
    """
    ca, sa = math.cos(att.yaw), math.sin(att.yaw)
    cb, sb = math.cos(att.pitch), math.sin(att.pitch)
    cg, sg = math.cos(att.roll), math.sin(att.roll)
    return np.array(
        [
            [ca * cb, ca * sb * sg - sa * cg, ca * sb * cg + sa * sg],
            [sa * cb, sa * sb * sg + ca * cg, sa * sb * cg - ca * sg],
            [-sb, cb * sg, cb * cg],
        ]
    )


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


def _latitude_height(r, z, atan2):
    """Geodetic latitude and height of the point ``r`` from the polar axis and
    ``z`` above the equatorial plane, in Vermeille's closed form.

    Runs on floats with ``atan2=math.atan2`` and elementwise on arrays with
    ``atan2=np.arctan2``; the rest is arithmetic both share.
    """
    e4 = WGS84_E2 * WGS84_E2
    p = (r / WGS84_A) ** 2
    q = (1.0 - WGS84_E2) * (z / WGS84_A) ** 2
    r6 = (p + q - e4) / 6.0
    s = e4 * p * q / (4.0 * r6**3)
    t = (1.0 + s + (s * (2.0 + s)) ** 0.5) ** (1.0 / 3.0)
    u = r6 * (1.0 + t + 1.0 / t)
    v = (u * u + e4 * q) ** 0.5
    w = WGS84_E2 * (u + v - q) / (2.0 * v)
    k = (u + v + w * w) ** 0.5 - w
    # held to the return, these arrays raised the simulator's peak RSS by 2 MB
    del p, q, r6, s, t, u, v, w
    d = k * r / (k + WGS84_E2)
    dz = (d * d + z * z) ** 0.5
    return 2.0 * atan2(z, d + dz), (k + WGS84_E2 - 1.0) / k * dz


def ecef_to_geodetic(p: np.ndarray) -> Geodetic:
    """ECEF position to WGS84 geodetic coordinates.

    Raises ValueError for a point within ``MIN_RADIUS_M`` of the Earth's centre.
    """
    x, y, z = np.asarray(p, dtype=float).tolist()
    r = math.hypot(x, y)
    if r * r + z * z < MIN_RADIUS_M**2:
        raise ValueError("an ECEF point this near the Earth's centre has no exact geodetic image")
    lat, height = _latitude_height(r, z, math.atan2)
    lon = math.atan2(y, x)
    # atan2 gives -pi on the antimeridian for y = -0.0 and for any y too
    # small to move it; Geodetic takes that longitude as pi
    return Geodetic(lat, math.pi if lon == -math.pi else lon, height)


def ecef_to_geodetic_array(p: np.ndarray):
    """Array form of :func:`ecef_to_geodetic` for an ``(N, 3)`` stack of points.

    Returns latitude, longitude and height arrays. Raises ValueError if any
    point lies within ``MIN_RADIUS_M`` of the Earth's centre.
    """
    p = np.asarray(p, dtype=float).reshape(-1, 3)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    r = np.hypot(x, y)
    if np.any(r * r + z * z < MIN_RADIUS_M**2):
        raise ValueError("an ECEF point this near the Earth's centre has no exact geodetic image")
    lat, height = _latitude_height(r, z, np.arctan2)
    lon = np.arctan2(y, x)
    lon[lon == -np.pi] = np.pi
    return lat, lon, height


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


def body_accel_to_ecef(raw: np.ndarray, att: EulerAngles, geo: Geodetic) -> np.ndarray:
    """Transform a body-frame specific force into the ECEF frame.

    The force is rotated through the local frame, then into ECEF by the
    columns of :func:`rotation_global_from_local`, written out. It is used
    as measured: neither estimator family models an accelerometer bias.
    """
    east, north, up = (rotation_local_from_body(att) @ np.asarray(raw, dtype=float)).tolist()
    sphi, cphi = math.sin(geo.lat), math.cos(geo.lat)
    slam, clam = math.sin(geo.lon), math.cos(geo.lon)
    # the local vector's component in the equatorial plane, along the meridian
    horizontal = cphi * up - sphi * north
    return np.array(
        [clam * horizontal - slam * east, slam * horizontal + clam * east, cphi * north + sphi * up]
    )
