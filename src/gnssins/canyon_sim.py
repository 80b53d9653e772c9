"""Synthetic urban-canyon dataset generator.

Produces a ground-truth trajectory through waypoint legs with corner blends,
a drifting GPS/BeiDou constellation, pseudoranges with LOS noise and a
positive long-tail NLOS bias where buildings mask the sky, SNR consistent
with the reception class, body-frame IMU specific force with bias, AHRS
attitude, and single-epoch weighted least-squares fixes for the loosely
coupled path. Everything is deterministic in (config, seed).

The canyon is modeled as azimuth sectors with a minimum line-of-sight
elevation: satellites above the mask are LOS, satellites within
``nlos_depth_deg`` below it are received with an NLOS bias, anything deeper
is blocked entirely. Optional deep intervals raise every mask for a time
span to emulate driving under dense high-rise cover.

``SimConfig`` derives the run's shape (epoch count, IMU samples per epoch,
trajectory) once, as it is checked; ``simulate`` only reads it. Everything
else but the random draws is computed once, in bulk: the trajectory at the
IMU sample edges, each epoch's IMU input (``_epoch_imu``), truth attitude
and clocks, the satellite geometry of the whole epochs-by-tracks grid
(``satellite_ecef_grid``, ``azimuth_elevation_grid``) and which of its pairs
are LOS or NLOS candidates; their per-pair scalar references live in the
tests. The loop over the visible pairs then only draws (whether a candidate
is received, then the noise), in the (epoch, track) order of a per-pair
computation, so a seed gives the same draws and the same dataset.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import fgo
from .frames import (
    EulerAngles,
    Geodetic,
    ecef_to_geodetic,
    ecef_to_geodetic_array,
    enu_to_ecef,
    geodetic_to_ecef,
    global_to_local_array,
    rotation_global_from_local,
)
from .noise_models import (
    GmmComponent,
    GmmModel,
    SatObservation,
    WeightingParams,
    hdop_array,
)
from .types import Constellation, EpochMeasurements, check_numbers

MEO_RADIUS_M = 26_560e3
HARD_HORIZON_RAD = math.radians(5.0)
CSV_FLOAT = "%.12g"


@dataclass(frozen=True)
class Waypoint:
    """A point of the route. The leg that leaves it runs at its ``speed`` (m/s);
    the last waypoint's speed is checked and written but never read, as the
    run goes on at the last leg's velocity once the route ends."""

    geo: Geodetic
    speed: float


@dataclass(frozen=True)
class MaskSector:
    az_min_deg: float
    az_max_deg: float
    min_elevation_deg: float

    def contains(self, az_deg) -> np.ndarray:
        """Whether each azimuth lies clockwise from ``az_min_deg`` to
        ``az_max_deg``, ends included, all modulo 360 (so it may wrap past north)."""
        az = np.mod(az_deg, 360.0)
        lo, hi = self.az_min_deg % 360.0, self.az_max_deg % 360.0
        if lo <= hi:
            return (lo <= az) & (az <= hi)
        return (az >= lo) | (az <= hi)


@dataclass(frozen=True)
class DeepInterval:
    """Time span ``[t_start, t_end)`` of dense high-rise cover blocking
    everything below a floor."""

    t_start: float
    t_end: float
    block_floor_deg: float


@dataclass(frozen=True)
class ClockModel:
    bias_m: float
    drift_mps: float

    def at(self, t):
        return self.bias_m + self.drift_mps * t


@dataclass(frozen=True)
class SnrModel:
    mean: float
    sigma: float


def _default_nlos_models() -> dict:
    # three components per constellation: mild diffuse reflections, medium
    # multipath, and the long-tail NLOS component (largest mean)
    return {
        "GPS": GmmModel(
            (
                GmmComponent(0.5, 1.5, 3.0),
                GmmComponent(0.3, 7.0, 5.5),
                GmmComponent(0.2, 38.76, 13.0),
            )
        ),
        "BeiDou": GmmModel(
            (
                GmmComponent(0.5, 1.5, 3.0),
                GmmComponent(0.3, 6.0, 5.0),
                GmmComponent(0.2, 32.62, 11.0),
            )
        ),
    }


@dataclass(frozen=True)
class SimConfig:
    """One scenario, checked whole when made and frozen (``dataclasses.replace``
    makes a checked copy). Its containers are stored immutable: the sequences
    as tuples, the model dicts as read-only mappings of a copy, and
    ``accel_bias_true`` as a read-only array copy, so no edit can slip past
    the checks. It then derives the run's shape once, as plain attributes,
    not fields: ``n_epochs``, ``samples_per_epoch`` (IMU samples per GNSS
    epoch) and ``trajectory`` (:func:`build_trajectory`'s pieces)."""

    waypoints: Sequence[Waypoint]
    duration_s: float = 300.0
    imu_rate_hz: float = 100.0
    gnss_rate_hz: float = 1.0
    los_sigma_m: float = 2.0
    nlos_model: Mapping[str, GmmModel] = field(default_factory=_default_nlos_models)
    canyon_sectors: Sequence[MaskSector] = ()
    open_sky_min_elevation_deg: float = 10.0
    nlos_depth_deg: float = 30.0
    nlos_receive_prob: float = 1.0  # chance a masked satellite is received at all
    snr_bias_slope_db_per_m: float = 0.0  # SNR drop per meter of NLOS bias
    deep_intervals: Sequence[DeepInterval] = ()
    accel_bias_true: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_noise_sigma: float = 0.0
    attitude_noise_deg: float = 0.0
    clock_models: Mapping[str, ClockModel] = field(
        default_factory=lambda: {
            "GPS": ClockModel(120.0, 0.0),
            "BeiDou": ClockModel(95.0, 0.0),
        }
    )
    snr_los: SnrModel = SnrModel(48.0, 2.0)
    snr_nlos: SnrModel = SnrModel(37.0, 3.0)
    n_satellites: int = 14
    n_high_satellites: int = 5
    max_accel: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_numbers(self)
        for name in ("waypoints", "canyon_sectors", "deep_intervals"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("nlos_model", "clock_models"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        bias = np.array(self.accel_bias_true, dtype=float)
        bias.setflags(write=False)
        object.__setattr__(self, "accel_bias_true", bias)
        if self.accel_bias_true.shape != (3,):
            raise ValueError(f"accel_bias_true must hold three numbers, got {self.accel_bias_true}")
        positive = ("duration_s", "imu_rate_hz", "gnss_rate_hz", "max_accel")
        for name, value in zip(positive, attrgetter(*positive)(self)):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        # simulate's epoch count (it may overflow); a scenario without an epoch has no dataset
        epochs = self.duration_s * self.gnss_rate_hz
        if not (math.isfinite(epochs) and round(epochs) >= 1):
            raise ValueError(
                f"duration_s {self.duration_s!r} at {self.gnss_rate_hz!r} Hz gives no GNSS epoch"
            )
        # each epoch averages the IMU samples since the last one, so a whole
        # number of them must fall between epochs
        ratio = self.imu_rate_hz / self.gnss_rate_hz
        steps = round(ratio) if math.isfinite(ratio) else 0
        if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
            raise ValueError(f"imu_rate_hz / gnss_rate_hz must be a positive integer, got {ratio!r}")
        if round(epochs) * steps > np.iinfo(np.intp).max:  # simulate's IMU sample count
            raise ValueError(f"duration_s {self.duration_s!r} gives too many IMU samples to index")
        non_negative = ("seed", "los_sigma_m", "accel_noise_sigma", "attitude_noise_deg",
                        "nlos_depth_deg", "snr_los.sigma", "snr_nlos.sigma", "n_satellites",
                        "n_high_satellites")
        for name, value in zip(non_negative, attrgetter(*non_negative)(self)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if not 0.0 <= self.nlos_receive_prob <= 1.0:
            raise ValueError(f"nlos_receive_prob must lie in [0, 1], got {self.nlos_receive_prob!r}")
        if not 0.0 <= (sky := self.open_sky_min_elevation_deg) < 90.0:
            raise ValueError(f"open_sky_min_elevation_deg must lie in [0, 90), got {sky!r}")
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        if min(speeds := [w.speed for w in self.waypoints]) <= 0:
            raise ValueError(f"waypoints speeds must be positive, got {speeds}")
        for s in self.canyon_sectors:
            if not 0.0 <= s.min_elevation_deg < 90.0:
                raise ValueError(f"canyon_sectors mask elevations must lie in [0, 90), got {s}")
            # equal ends would mask one azimuth; open_sky_min_elevation_deg masks all round
            if s.az_min_deg % 360.0 == s.az_max_deg % 360.0:
                raise ValueError(f"canyon_sectors ends must differ modulo 360, got {s}")
        for d in self.deep_intervals:
            if d.t_end <= d.t_start:
                raise ValueError(f"deep_intervals must end after they start, got {d}")
        # a model for each constellation generate_constellation draws, and no other
        names = {c.value for c in Constellation}
        for key in ("clock_models", "nlos_model"):
            got = sorted(map(str, getattr(self, key)))
            if set(got) != names:
                raise ValueError(f"{key} must name exactly {sorted(names)}, got {got}")
        for name, model in self.nlos_model.items():
            weights = [c.weight for c in model.components]
            stds = [c.std for c in model.components]
            if min(weights + stds, default=0) < 0 or not 0 < sum(weights) < math.inf:
                raise ValueError(
                    f"nlos_model[{name!r}] needs non-negative weights with a positive sum and"
                    f" non-negative stds, got weights {weights} and stds {stds}"
                )
        object.__setattr__(self, "n_epochs", round(epochs))
        object.__setattr__(self, "samples_per_epoch", steps)
        object.__setattr__(self, "trajectory", build_trajectory(self))

    @property
    def ref(self) -> Geodetic:
        return self.waypoints[0].geo

    def mask_elevation_deg(self, az_deg) -> np.ndarray:
        """Line-of-sight mask elevation at each azimuth: the highest sector
        containing it, or the open-sky mask, capped at 89 degrees."""
        mask = np.full(np.shape(az_deg), self.open_sky_min_elevation_deg)
        for sector in self.canyon_sectors:
            mask = np.where(sector.contains(az_deg), np.maximum(mask, sector.min_elevation_deg), mask)
        return np.minimum(mask, 89.0)

    def block_floor_deg(self, t) -> np.ndarray:
        """Elevation below which deep cover blocks everything at each time:
        the highest floor of the intervals active then, 0 outside them."""
        floor = np.zeros(np.shape(t))
        for d in self.deep_intervals:
            active = (d.t_start <= t) & (t < d.t_end)
            floor = np.where(active, np.maximum(floor, d.block_floor_deg), floor)
        return floor


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryPiece:
    t0: float
    duration: float
    p0: np.ndarray  # ENU, meters
    v0: np.ndarray  # ENU, m/s
    accel: np.ndarray  # ENU, m/s^2


def build_trajectory(cfg: SimConfig) -> list[TrajectoryPiece]:
    """Piecewise constant-velocity legs joined by constant-acceleration blends.

    Each leg runs at the speed of the waypoint it leaves, so the last
    waypoint's speed is never read; after the route ends the run continues
    at the last leg's velocity. Each blend replaces the waypoint corner: it
    starts half a blend early on the incoming leg and lands exactly on the
    outgoing leg, which keeps position and velocity continuous with bounded
    acceleration. Coincident waypoints, or a leg too short for its blends,
    are an error naming ``waypoints`` (and ``max_accel``, which sets them).
    """
    ref = cfg.ref
    ref_ecef = geodetic_to_ecef(ref)
    rot = rotation_global_from_local(ref)
    points = [rot.T @ (geodetic_to_ecef(w.geo) - ref_ecef) for w in cfg.waypoints]
    speeds = [w.speed for w in cfg.waypoints]

    directions = []
    lengths = []
    for a, b in zip(points, points[1:]):
        d = b - a
        length = float(np.linalg.norm(d))
        if length < 1e-9:
            raise ValueError(f"waypoints {len(lengths)} and {len(lengths) + 1} coincide")
        directions.append(d / length)
        lengths.append(length)

    velocities = [speeds[i] * directions[i] for i in range(len(directions))]
    blends = []
    for i in range(len(directions) - 1):
        dv = velocities[i + 1] - velocities[i]
        tau = max(float(np.linalg.norm(dv)) / cfg.max_accel, 1.0)
        blends.append(tau)

    pieces: list[TrajectoryPiece] = []
    t = 0.0
    pos = points[0].copy()
    for i, (v, length) in enumerate(zip(velocities, lengths)):
        cut_in = speeds[i] * blends[i - 1] / 2.0 if i > 0 else 0.0
        cut_out = speeds[i] * blends[i] / 2.0 if i < len(blends) else 0.0
        cruise_len = length - cut_in - cut_out
        if cruise_len < 0:
            raise ValueError(
                f"max_accel {cfg.max_accel!r} makes corner blends longer than waypoints leg {i}"
            )
        cruise_dur = cruise_len / speeds[i]
        if cruise_dur > 0:
            pieces.append(TrajectoryPiece(t, cruise_dur, pos.copy(), v.copy(), np.zeros(3)))
            pos = pos + v * cruise_dur
            t += cruise_dur
        if i < len(blends):
            tau = blends[i]
            accel = (velocities[i + 1] - v) / tau
            pieces.append(TrajectoryPiece(t, tau, pos.copy(), v.copy(), accel))
            pos = pos + v * tau + 0.5 * accel * tau**2
            t += tau

    if t < cfg.duration_s:  # extend the final leg at constant velocity
        pieces.append(
            TrajectoryPiece(t, cfg.duration_s - t, pos.copy(), velocities[-1].copy(), np.zeros(3))
        )
    return pieces


def eval_trajectory(pieces: Sequence[TrajectoryPiece], t: np.ndarray):
    """Exact ENU position and velocity at the given times."""
    t = np.asarray(t, dtype=float)
    starts = np.array([p.t0 for p in pieces])
    idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(pieces) - 1)
    pos = np.empty((t.size, 3))
    vel = np.empty((t.size, 3))
    for i, piece in enumerate(pieces):
        sel = idx == i
        if not np.any(sel):
            continue
        s = (t[sel] - piece.t0)[:, None]
        pos[sel] = piece.p0 + piece.v0 * s + 0.5 * piece.accel * s**2
        vel[sel] = piece.v0 + piece.accel * s
    return pos, vel


# ---------------------------------------------------------------------------
# Constellation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatTrack:
    sat_id: str
    constellation: Constellation
    az0_deg: float
    az_rate_deg: float
    el_center_deg: float
    el_amp_deg: float
    el_omega: float
    el_phase: float


def generate_constellation(cfg: SimConfig, rng: np.random.Generator) -> list[SatTrack]:
    """Slowly drifting az/el tracks, half GPS and half BeiDou.

    A handful of tracks ride high in the sky (the satellites that survive
    dense urban cover); the rest drift at the low and middle elevations
    where canyon walls matter.
    """
    tracks = []
    n_high = min(cfg.n_high_satellites, cfg.n_satellites)
    for i in range(cfg.n_satellites):
        constellation = Constellation.GPS if i % 2 == 0 else Constellation.BEIDOU
        prefix = "G" if constellation is Constellation.GPS else "C"
        if i < n_high:
            el_amp = float(rng.uniform(2.0, 4.0))
            el_center = float(rng.uniform(66.0, 80.0))
        else:
            el_amp = float(rng.uniform(4.0, 12.0))
            el_center = float(rng.uniform(12.0, 55.0))
            el_center = max(el_center, el_amp + 8.0)
        tracks.append(
            SatTrack(
                sat_id=f"{prefix}{i + 1:02d}",
                constellation=constellation,
                az0_deg=float(rng.uniform(0.0, 360.0)),
                az_rate_deg=float(rng.uniform(-0.03, 0.03)),
                el_center_deg=el_center,
                el_amp_deg=el_amp,
                el_omega=2.0 * math.pi / float(rng.uniform(900.0, 2400.0)),
                el_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
    return tracks


def satellite_ecef_grid(
    tracks: Sequence[SatTrack], t: np.ndarray, ref: Geodetic
) -> np.ndarray:
    """ECEF positions on the MEO shell along each track's az/el at ``ref``, for
    every time and track, as a ``(len(t), len(tracks), 3)`` array."""
    t = np.asarray(t, dtype=float)[:, None]
    names = ("az0_deg", "az_rate_deg", "el_center_deg", "el_amp_deg", "el_omega", "el_phase")
    az0, az_rate, el_center, el_amp, el_omega, el_phase = (
        np.array([getattr(tr, name) for tr in tracks], dtype=float) for name in names
    )
    az = np.radians(np.mod(az0 + az_rate * t, 360.0))
    el = np.radians(el_center + el_amp * np.sin(el_omega * t + el_phase))
    u_enu = np.stack((np.sin(az) * np.cos(el), np.cos(az) * np.cos(el), np.sin(el)), axis=-1)
    r0 = geodetic_to_ecef(ref)
    u = u_enu @ rotation_global_from_local(ref).T
    ru = u @ r0
    slant = -ru + np.sqrt(ru**2 + MEO_RADIUS_M**2 - float(r0 @ r0))
    return r0 + slant[..., None] * u


def azimuth_elevation_grid(
    sat_pos: np.ndarray, receivers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth/elevation (radians) of ``sat_pos[k, j]`` seen from the ECEF ``receivers[k]``."""
    lat, lon, _ = ecef_to_geodetic_array(receivers)
    enu = global_to_local_array(lat[:, None], lon[:, None], sat_pos - receivers[:, None, :])
    rng = np.sqrt(np.einsum("...i,...i->...", enu, enu))
    el = np.arcsin(enu[..., 2] / rng)
    az = np.mod(np.arctan2(enu[..., 0], enu[..., 1]), 2.0 * math.pi)
    return az, el


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    ref: Geodetic
    epochs: list[EpochMeasurements]
    truth_t: np.ndarray
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    truth_clocks: dict
    truth_attitude: np.ndarray  # per-epoch yaw/pitch/roll
    imu_t: np.ndarray
    imu_accel: np.ndarray
    imu_attitude: np.ndarray

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    def nlos_fraction(self) -> float:
        total = sum(len(e.sats) for e in self.epochs)
        if total == 0:
            return 0.0
        nlos = sum(sum(1 for s in e.sats if s.nlos_truth) for e in self.epochs)
        return nlos / total

    def mean_sats_per_epoch(self) -> float:
        return float(np.mean([len(e.sats) for e in self.epochs]))

    def range_error(self, epoch_idx: int, sat: SatObservation) -> float:
        """Pseudorange error against truth geometry and clock."""
        rng = float(np.linalg.norm(sat.sat_pos - self.truth_pos[epoch_idx]))
        clock = self.truth_clocks[sat.constellation.value][epoch_idx]
        return sat.pseudorange - rng - clock


def _truncated_positive_normal(rng: np.random.Generator, mean: float, std: float) -> float:
    for _ in range(100):
        draw = rng.normal(mean, std)
        if draw >= 0.0:
            return float(draw)
    return 0.0


def _component_cdf(model: GmmModel) -> list[float]:
    """Cumulative weights of the mixture's components, normalised as numpy's
    ``Generator.choice`` normalises its ``p``: ``bisect_right(cdf,
    rng.random())`` then picks the component that ``rng.choice(n,
    p=weights / weights.sum())`` picks, from the same draw."""
    weights = np.array([c.weight for c in model.components])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw_nlos_bias(rng: np.random.Generator, model: GmmModel, cdf: Sequence[float]) -> float:
    """Positive bias from the full mixture, whose :func:`_component_cdf` is
    ``cdf``: most reflections add a few meters, the long-tail component adds
    tens."""
    comp = model.components[bisect.bisect_right(cdf, rng.random())]
    return _truncated_positive_normal(rng, comp.mean, comp.std)


def _imu_truth(pieces, imu_t: np.ndarray, rate_hz: float, ref: Geodetic):
    """True yaw and body-frame specific force (no bias, no noise) per IMU sample.

    One trajectory pass at the sample edges ``[0, imu_t]``. The specific force
    is the mean ENU acceleration over each sample, from exact velocity
    differences, taken into the sample's local frame and then into the body
    frame by the true yaw (pitch and roll are zero).
    """
    pos, vel = eval_trajectory(pieces, np.concatenate(([0.0], imu_t)))
    accel_enu = np.diff(vel, axis=0) * rate_hz
    yaw = np.arctan2(vel[1:, 0], vel[1:, 1])
    rot_ref = rotation_global_from_local(ref)
    lat, lon, _ = ecef_to_geodetic_array(geodetic_to_ecef(ref) + pos[1:] @ rot_ref.T)
    a_local = global_to_local_array(lat, lon, accel_enu @ rot_ref.T)
    cy, sy = np.cos(yaw), np.sin(yaw)
    force = np.column_stack(
        (
            cy * a_local[:, 0] + sy * a_local[:, 1],
            -sy * a_local[:, 0] + cy * a_local[:, 1],
            a_local[:, 2],
        )
    )
    return yaw, force


def _epoch_imu(imu_accel: np.ndarray, samples_per_epoch: int, *sampled: np.ndarray):
    """Each epoch's mean specific force over the IMU samples since the epoch
    before, then each per-sample array of ``sampled`` at the last of them, the
    sample at the epoch's time. Epoch 0 takes zero force and the first sample.
    The samples come in whole epochs, the last epoch's after its time."""
    n_epochs = len(imu_accel) // samples_per_epoch
    accel = np.zeros((n_epochs, 3))
    accel[1:] = imu_accel.reshape(n_epochs, samples_per_epoch, 3)[:-1].mean(axis=1)
    last = np.maximum(samples_per_epoch * np.arange(n_epochs) - 1, 0)
    return (accel, *(a[last] for a in sampled))


def simulate(cfg: SimConfig) -> Dataset:
    """Generate a complete dataset for the configuration, in the shape it derived."""
    rng = np.random.default_rng(cfg.seed)
    ref, n_epochs, samples_per_epoch = cfg.ref, cfg.n_epochs, cfg.samples_per_epoch
    rot_ref = rotation_global_from_local(ref)
    ref_ecef = geodetic_to_ecef(ref)
    epoch_t = np.arange(n_epochs) / cfg.gnss_rate_hz
    # whole epochs of IMU samples, so that the dataset reads back at any duration
    n_imu = n_epochs * samples_per_epoch
    imu_t = np.arange(1, n_imu + 1) / cfg.imu_rate_hz

    pos_e, vel_e = eval_trajectory(cfg.trajectory, epoch_t)
    truth_pos = ref_ecef + (rot_ref @ pos_e.T).T
    truth_vel = (rot_ref @ vel_e.T).T

    yaw_true, imu_accel = _imu_truth(cfg.trajectory, imu_t, cfg.imu_rate_hz, ref)
    att_noise = math.radians(cfg.attitude_noise_deg)
    imu_attitude = np.zeros((n_imu, 3))
    imu_attitude[:, 0] = yaw_true
    if att_noise > 0:
        imu_attitude += rng.normal(0.0, att_noise, size=(n_imu, 3))

    imu_accel += cfg.accel_bias_true
    if cfg.accel_noise_sigma > 0:
        imu_accel += rng.normal(0.0, cfg.accel_noise_sigma, size=(n_imu, 3))

    epoch_accel, epoch_att, epoch_yaw = _epoch_imu(imu_accel, samples_per_epoch, imu_attitude, yaw_true)
    truth_attitude = np.column_stack((epoch_yaw, np.zeros((n_epochs, 2))))
    tracks = generate_constellation(cfg, rng)
    clock_series = {name: model.at(epoch_t) for name, model in cfg.clock_models.items()}

    # geometry and visibility of every (epoch, track) pair up front: a pair
    # above the horizon and the deep-cover floor is LOS at or above its mask,
    # and an NLOS candidate no more than nlos_depth_deg below it
    sat_grid = satellite_ecef_grid(tracks, epoch_t, ref)
    az_grid, el_grid = azimuth_elevation_grid(sat_grid, truth_pos)
    offset = sat_grid - truth_pos[:, None, :]
    range_grid = np.sqrt(np.einsum("...i,...i->...", offset, offset))
    el_deg = np.degrees(el_grid)
    mask_deg = cfg.mask_elevation_deg(np.degrees(az_grid))
    seen = (el_grid >= HARD_HORIZON_RAD) & (el_deg >= cfg.block_floor_deg(epoch_t)[:, None])
    los = seen & (el_deg >= mask_deg)
    candidate = seen & ~los & (el_deg >= mask_deg - cfg.nlos_depth_deg)

    # the loop only draws, visiting the pairs in (epoch, track) order, which
    # fixes the sequence of random draws
    sats: list[list[SatObservation]] = [[] for _ in epoch_t]
    cdfs = {name: _component_cdf(model) for name, model in cfg.nlos_model.items()}
    ks, js = np.nonzero(los | candidate)
    for k, j, nlos in zip(ks.tolist(), js.tolist(), candidate[ks, js].tolist()):
        # reflections flicker with receiver motion: a masked satellite is only
        # intermittently received, and then with a bias
        if nlos and rng.uniform() >= cfg.nlos_receive_prob:
            continue
        track = tracks[j]
        name = track.constellation.value
        rho = range_grid.item(k, j) + clock_series[name][k]
        if cfg.los_sigma_m > 0:
            rho += rng.normal(0.0, cfg.los_sigma_m)
        snr_shift = 0.0
        if nlos:
            bias = _draw_nlos_bias(rng, cfg.nlos_model[name], cdfs[name])
            rho += bias
            snr_model = cfg.snr_nlos
            # deeper reflections arrive weaker
            snr_shift = -cfg.snr_bias_slope_db_per_m * bias
        else:
            snr_model = cfg.snr_los
        snr = min(max(rng.normal(snr_model.mean + snr_shift, snr_model.sigma), 25.0), 55.0)
        sats[k].append(
            SatObservation(
                sat_id=track.sat_id,
                constellation=track.constellation,
                sat_pos=sat_grid[k, j],
                pseudorange=rho,
                snr=snr,
                elevation=el_grid.item(k, j),
                azimuth=az_grid.item(k, j),
                nlos_truth=nlos,
            )
        )

    epochs = [
        EpochMeasurements(t, 1.0 / cfg.gnss_rate_hz, accel, EulerAngles(*att), epoch_sats)
        for t, accel, att, epoch_sats in zip(epoch_t.tolist(), epoch_accel, epoch_att, sats)
    ]
    return Dataset(
        ref=ref,
        epochs=epochs,
        truth_t=epoch_t,
        truth_pos=truth_pos,
        truth_vel=truth_vel,
        truth_clocks=clock_series,
        truth_attitude=truth_attitude,
        imu_t=imu_t,
        imu_accel=imu_accel,
        imu_attitude=imu_attitude,
    )


def generate_lc_fixes(
    epochs: Sequence[EpochMeasurements], weighting: Optional[WeightingParams] = None
) -> None:
    """Fill per-epoch LC fixes by single-epoch weighted least squares.

    Epochs with too few satellites to overdetermine a fix
    (:func:`fgo.overdetermined`) or with degenerate geometry are left
    fix-unavailable. Fixes inherit whatever corruption the pseudoranges
    carry, like a real receiver's output would.

    Every overdetermined epoch is solved from the Earth's centre in one
    :class:`fgo.EpochWls` stack (:meth:`fgo.EpochWls.solve`). An epoch the
    solve fixes takes its solution as its fix, with its HDOP there
    (:func:`noise_models.hdop_array`), when that HDOP is finite. If the
    solve raises, no epoch gets a fix.
    """
    weighting = weighting or WeightingParams()
    for epoch in epochs:
        epoch.fix_pos = None
        epoch.fix_hdop = None
    pending = [epoch for epoch in epochs if fgo.overdetermined(epoch.sats)]
    if not pending:
        return
    try:
        problem = fgo.EpochWls([epoch.sats for epoch in pending], weighting)
        values, ok = problem.solve()
    except ValueError:  # GeometryError and numpy's LinAlgError among them
        return
    fixed = np.flatnonzero(ok)
    hdops = hdop_array(problem.sat_pos[fixed], problem.clocks[fixed], values[fixed, 0:3])
    for k, hdop in zip(fixed, hdops):
        if np.isfinite(hdop):
            pending[k].fix_pos = values[k, 0:3]
            pending[k].fix_hdop = float(hdop)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _offset_waypoint(ref: Geodetic, east: float, north: float, speed: float) -> Waypoint:
    geo = ecef_to_geodetic(enu_to_ecef(ref, np.array([east, north, 0.0])))
    return Waypoint(geo=geo, speed=speed)


def default_canyon_config(seed: int = 99) -> SimConfig:
    """300-epoch urban canyon: wide masking walls, six deep-cover stretches.

    Four high tracks survive the deep cover (enough for the tightly coupled
    estimators, one short of a loosely coupled fix), mid/low tracks carry the
    flickering NLOS load, and roughly forty percent of the run sits under
    dense cover.
    """
    ref = Geodetic.from_degrees(22.32, 114.17, 5.0)
    waypoints = [
        Waypoint(ref, 8.0),
        _offset_waypoint(ref, 0.0, 900.0, 8.0),
        _offset_waypoint(ref, 700.0, 900.0, 8.0),
        _offset_waypoint(ref, 700.0, 1800.0, 8.0),
    ]
    return SimConfig(
        waypoints=waypoints,
        duration_s=300.0,
        los_sigma_m=2.0,
        canyon_sectors=[
            MaskSector(25.0, 155.0, 62.0),
            MaskSector(205.0, 335.0, 62.0),
        ],
        open_sky_min_elevation_deg=10.0,
        nlos_depth_deg=60.0,
        nlos_receive_prob=0.6,
        snr_bias_slope_db_per_m=0.5,
        deep_intervals=[
            DeepInterval(40.0, 60.0, 60.0),
            DeepInterval(85.0, 105.0, 60.0),
            DeepInterval(130.0, 150.0, 60.0),
            DeepInterval(175.0, 195.0, 60.0),
            DeepInterval(220.0, 240.0, 60.0),
            DeepInterval(265.0, 285.0, 60.0),
        ],
        accel_bias_true=np.array([0.012, -0.008, 0.006]),
        accel_noise_sigma=0.15,
        attitude_noise_deg=0.2,
        clock_models={
            "GPS": ClockModel(120.0, 0.6),
            "BeiDou": ClockModel(95.0, -0.4),
        },
        snr_nlos=SnrModel(36.0, 2.5),
        n_satellites=14,
        n_high_satellites=4,
        seed=seed,
    )


def noise_free_config(seed: int = 1, duration_s: float = 60.0) -> SimConfig:
    """Straight constant-velocity run with every error source disabled."""
    ref = Geodetic.from_degrees(22.32, 114.17, 5.0)
    waypoints = [Waypoint(ref, 8.0), _offset_waypoint(ref, 300.0, 400.0, 8.0)]
    return SimConfig(
        waypoints=waypoints,
        duration_s=duration_s,
        los_sigma_m=0.0,
        canyon_sectors=[],
        open_sky_min_elevation_deg=10.0,
        nlos_depth_deg=0.0,
        accel_bias_true=np.zeros(3),
        accel_noise_sigma=0.0,
        attitude_noise_deg=0.0,
        clock_models={
            "GPS": ClockModel(120.0, 0.0),
            "BeiDou": ClockModel(95.0, 0.0),
        },
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------


def _waypoint_from_json(w: dict) -> Waypoint:
    degrees = w["lat_deg"], w["lon_deg"]
    if any(isinstance(d, bool) for d in degrees):  # math.radians would make it a float
        raise TypeError(f"waypoint degrees must be numbers, got {degrees}")
    return Waypoint(Geodetic.from_degrees(*degrees, w.get("height_m", 0.0)), w["speed_mps"])


# JSON form of the SimConfig fields that are not plain numbers, as
# (encode, decode); every other field is written as it is
_JSON_CODECS = {
    "waypoints": (
        lambda ws: [
            {
                "lat_deg": math.degrees(w.geo.lat),
                "lon_deg": math.degrees(w.geo.lon),
                "height_m": w.geo.height,
                "speed_mps": w.speed,
            }
            for w in ws
        ],
        lambda ws: list(map(_waypoint_from_json, ws)),
    ),
    "nlos_model": (
        lambda models: {
            name: [list(astuple(c)) for c in m.components] for name, m in models.items()
        },
        lambda models: {
            name: GmmModel(tuple(GmmComponent(*c) for c in comps))
            for name, comps in models.items()
        },
    ),
    "canyon_sectors": (
        lambda sectors: [list(astuple(s)) for s in sectors],
        lambda sectors: [MaskSector(*s) for s in sectors],
    ),
    "deep_intervals": (
        lambda spans: [list(astuple(d)) for d in spans],
        lambda spans: [DeepInterval(*d) for d in spans],
    ),
    # SimConfig converts it to an array once it has checked its numbers
    "accel_bias_true": (lambda a: list(map(float, a)), list),
    "clock_models": (
        lambda models: {name: asdict(m) for name, m in models.items()},
        lambda models: {name: ClockModel(**m) for name, m in models.items()},
    ),
    "snr_los": (asdict, lambda d: SnrModel(**d)),
    "snr_nlos": (asdict, lambda d: SnrModel(**d)),
}


def config_to_dict(cfg: SimConfig) -> dict:
    """JSON-ready scenario: one key per ``SimConfig`` field, named after it."""
    out = {}
    for f in fields(SimConfig):
        value = getattr(cfg, f.name)
        out[f.name] = _JSON_CODECS[f.name][0](value) if f.name in _JSON_CODECS else value
    return out


def config_from_dict(data: dict) -> SimConfig:
    """Inverse of :func:`config_to_dict`. An absent key takes ``SimConfig``'s
    default; ``waypoints`` is required, and an unknown key or a value its
    field cannot be built from is an error naming the key. ``SimConfig``
    itself checks every number (see :func:`types.check_numbers`) and range."""
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
    if "waypoints" not in data:
        raise ValueError("a scenario needs 'waypoints'")
    kwargs = {}
    for name, value in data.items():
        try:
            kwargs[name] = _JSON_CODECS[name][1](value) if name in _JSON_CODECS else value
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed scenario key {name!r}: {exc!r}") from exc
    return SimConfig(**kwargs)


def load_config(path: Path) -> SimConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# CSV persistence (truth.csv, imu.csv, gnss.csv)
# ---------------------------------------------------------------------------


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Headered CSV: floats as ``CSV_FLOAT``, anything else through ``str``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(CSV_FLOAT % v if isinstance(v, float) else str(v) for v in row) + "\n")


# Each dataset file's columns, in the order written. truth.csv also carries one
# clk_<constellation> column per clock model, between the velocity and the attitude.
TRUTH_COLUMNS = ("t", "x", "y", "z", "vx", "vy", "vz", "yaw", "pitch", "roll")
IMU_COLUMNS = ("t", "fx", "fy", "fz", "yaw", "pitch", "roll")
GNSS_COLUMNS = (
    "t", "sat_id", "constellation", "sat_x", "sat_y", "sat_z", "pseudorange_m", "snr_dbhz",
    "elevation_rad", "azimuth_rad", "nlos", "range_error_m",
)


def write_dataset(ds: Dataset, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clock_names = sorted(ds.truth_clocks)
    write_csv(
        out_dir / "truth.csv",
        [*TRUTH_COLUMNS[:7], *(f"clk_{n}" for n in clock_names), *TRUTH_COLUMNS[7:]],
        np.column_stack(
            [ds.truth_t, ds.truth_pos, ds.truth_vel]
            + [ds.truth_clocks[n] for n in clock_names]
            + [ds.truth_attitude]
        ),
    )
    write_csv(
        out_dir / "imu.csv",
        IMU_COLUMNS,
        np.column_stack([ds.imu_t, ds.imu_accel, ds.imu_attitude]),
    )
    write_csv(
        out_dir / "gnss.csv",
        GNSS_COLUMNS,
        (
            [float(e.t), s.sat_id, s.constellation.value, *map(float, s.sat_pos)]
            + [float(v) for v in (s.pseudorange, s.snr, s.elevation, s.azimuth)]
            + [int(bool(s.nlos_truth)), float(ds.range_error(k, s))]
            for k, e in enumerate(ds.epochs)
            for s in e.sats
        ),
    )


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """A headered CSV as text, one array of cells per column: ids stay as
    written, and a file with no rows still has its header. An empty file or a
    row of another length is an error that names the file."""
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        raise ValueError(f"{path.name}: empty file, no header")
    try:
        table = np.loadtxt(text.splitlines(), delimiter=",", dtype=str, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    return dict(zip(table[0].tolist(), table[1:].T))


def table_column(table: dict[str, np.ndarray], name: str, path: Path, dtype=float) -> np.ndarray:
    """Column ``name`` of a :func:`read_csv` table as ``dtype``, floats by
    default (a ``nan`` cell converts). A missing column or a cell that is not
    a number is an error that names the file and the column."""
    if name not in table:
        raise ValueError(f"{path.name}: no column {name!r}")
    try:
        return table[name].astype(dtype)
    except ValueError:
        raise ValueError(f"{path.name}: column {name!r} holds a cell that is not a number") from None


def _read_columns(path: Path, names: Sequence[str], text: Sequence[str] = ()) -> dict[str, np.ndarray]:
    """The columns ``names`` of a dataset file and any ``clk_`` columns it
    has, as floats but for the ``text`` columns."""
    table = read_csv(path)
    names = (*names, *(n for n in table if n.startswith("clk_")))
    return {n: table_column(table, n, path, str if n in text else float) for n in names}


def _check_finite(path: str, columns: dict[str, np.ndarray]) -> None:
    """Reject a numeric column of ``path`` with a value that is not finite."""
    for name, values in columns.items():
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ValueError(f"{path}: column {name!r} holds a value that is not finite")


def read_dataset(in_dir: Path) -> Dataset:
    """Rebuild a Dataset from the three CSV files."""
    in_dir = Path(in_dir)
    truth = _read_columns(in_dir / "truth.csv", TRUTH_COLUMNS)
    truth_t = truth["t"]
    if not truth_t.size:
        raise ValueError("truth.csv has no rows")
    truth_pos = np.column_stack([truth["x"], truth["y"], truth["z"]])
    truth_vel = np.column_stack([truth["vx"], truth["vy"], truth["vz"]])
    truth_clocks = {n[4:]: truth[n] for n in truth if n.startswith("clk_")}
    truth_attitude = np.column_stack([truth["yaw"], truth["pitch"], truth["roll"]])

    imu = _read_columns(in_dir / "imu.csv", IMU_COLUMNS)
    imu_t = imu["t"]
    imu_accel = np.column_stack([imu["fx"], imu["fy"], imu["fz"]])
    imu_attitude = np.column_stack([imu["yaw"], imu["pitch"], imu["roll"]])

    dt = float(truth_t[1] - truth_t[0]) if truth_t.size > 1 else 1.0
    if not (dt > 0 and np.all(np.abs(np.diff(truth_t) - dt) <= 1e-6 * dt)):
        raise ValueError("truth.csv times must increase at one constant step")

    gnss = _read_columns(in_dir / "gnss.csv", GNSS_COLUMNS, text=("sat_id", "constellation"))
    _check_finite("gnss.csv", gnss)
    gnss_t = gnss["t"]
    epoch_of = np.minimum(np.searchsorted(truth_t, gnss_t), truth_t.size - 1)
    unmatched = truth_t[epoch_of] != gnss_t
    if np.any(unmatched):
        raise ValueError(f"gnss.csv time {gnss_t[unmatched][0]:g} matches no epoch of truth.csv")
    try:
        constellations = [Constellation.from_name(c) for c in gnss["constellation"].tolist()]
    except ValueError as exc:
        raise ValueError(f"gnss.csv: column 'constellation' holds {exc}") from None
    if not np.isin(gnss["nlos"], (0.0, 1.0)).all():
        raise ValueError("gnss.csv: column 'nlos' holds a value other than 0 or 1")
    sats_by_epoch: list[list[SatObservation]] = [[] for _ in truth_t]
    for k, *sat in zip(  # then SatObservation's fields, in order
        epoch_of.tolist(),
        gnss["sat_id"].tolist(),
        constellations,
        np.column_stack([gnss["sat_x"], gnss["sat_y"], gnss["sat_z"]]),
        *(gnss[n].tolist() for n in ("pseudorange_m", "snr_dbhz", "elevation_rad", "azimuth_rad")),
        (gnss["nlos"] == 1.0).tolist(),
    ):
        sats_by_epoch[k].append(SatObservation(*sat))

    # epoch k averages the IMU rows since epoch k - 1, as simulate writes
    # them: the same number per epoch, the last of them at epoch k's time
    n = truth_t.size
    samples_per_epoch = imu_t.size // n
    if samples_per_epoch < 1 or samples_per_epoch * n != imu_t.size:
        raise ValueError(f"imu.csv: {imu_t.size} rows do not split evenly into {n} epochs")
    ends = imu_t[samples_per_epoch * np.arange(1, n) - 1]
    if not np.all(np.abs(ends - truth_t[1:]) <= 1e-6 * dt):
        raise ValueError("imu.csv: an epoch's last IMU sample is not at the epoch's time")
    epoch_accel, epoch_attitude = _epoch_imu(imu_accel, samples_per_epoch, imu_attitude)
    epochs = [
        EpochMeasurements(float(t), dt, accel, EulerAngles(*att), sats)
        for t, accel, att, sats in zip(truth_t, epoch_accel, epoch_attitude, sats_by_epoch)
    ]
    # after the epochs, which name a non-finite IMU input by its time
    _check_finite("truth.csv", truth)
    _check_finite("imu.csv", imu)

    ref = ecef_to_geodetic(truth_pos[0])
    return Dataset(
        ref=ref,
        epochs=epochs,
        truth_t=truth_t,
        truth_pos=truth_pos,
        truth_vel=truth_vel,
        truth_clocks=truth_clocks,
        truth_attitude=truth_attitude,
        imu_t=imu_t,
        imu_accel=imu_accel,
        imu_attitude=imu_attitude,
    )
