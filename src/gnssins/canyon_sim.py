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

Everything else is computed once, in bulk: the trajectory at the IMU sample
edges, each epoch's IMU input (``_epoch_imu``), truth attitude and clocks, and
satellite positions, azimuths, elevations and ranges for the whole
epochs-by-tracks grid (``satellite_ecef_grid``, ``azimuth_elevation_grid``;
their per-pair scalar references live in the tests).
The per-(epoch, track) loop then only applies the masks and draws the noise,
in the same order as a per-pair computation would, so a seed gives the
same random draws and the same dataset up to rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

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
from .noise_models import GmmComponent, GmmModel, SatObservation, WeightingParams, compute_hdop
from .types import Constellation, EpochMeasurements

MEO_RADIUS_M = 26_560e3
HARD_HORIZON_RAD = math.radians(5.0)
CSV_FLOAT = "%.12g"


@dataclass(frozen=True)
class Waypoint:
    geo: Geodetic
    speed: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("waypoint speed must be positive")


@dataclass(frozen=True)
class MaskSector:
    az_min_deg: float
    az_max_deg: float
    min_elevation_deg: float

    def contains(self, az_deg: float) -> bool:
        az = az_deg % 360.0
        lo, hi = self.az_min_deg % 360.0, self.az_max_deg % 360.0
        if lo <= hi:
            return lo <= az <= hi
        return az >= lo or az <= hi


@dataclass(frozen=True)
class DeepInterval:
    """Time span of dense high-rise cover blocking everything below a floor."""

    t_start: float
    t_end: float
    block_floor_deg: float

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


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


@dataclass
class SimConfig:
    waypoints: list[Waypoint]
    duration_s: float = 300.0
    imu_rate_hz: float = 100.0
    gnss_rate_hz: float = 1.0
    los_sigma_m: float = 2.0
    nlos_model: dict = field(default_factory=_default_nlos_models)
    canyon_sectors: list[MaskSector] = field(default_factory=list)
    open_sky_min_elevation_deg: float = 10.0
    nlos_depth_deg: float = 30.0
    nlos_receive_prob: float = 1.0  # chance a masked satellite is received at all
    snr_bias_slope_db_per_m: float = 0.0  # SNR drop per meter of NLOS bias
    deep_intervals: list[DeepInterval] = field(default_factory=list)
    accel_bias_true: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_noise_sigma: float = 0.0
    attitude_noise_deg: float = 0.0
    clock_models: dict = field(
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
        self.accel_bias_true = np.asarray(self.accel_bias_true, dtype=float)
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.imu_rate_hz <= 0 or self.gnss_rate_hz <= 0:
            raise ValueError("rates must be positive")
        # simulate's epoch count; a scenario without an epoch has no dataset
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
        non_negative = ("seed", "los_sigma_m", "accel_noise_sigma", "attitude_noise_deg",
                        "nlos_depth_deg", "snr_los.sigma", "snr_nlos.sigma", "n_satellites",
                        "n_high_satellites")
        for name, value in zip(non_negative, attrgetter(*non_negative)(self)):
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if not self.max_accel > 0:
            raise ValueError(f"max_accel must be positive, got {self.max_accel!r}")
        if not 0.0 <= self.nlos_receive_prob <= 1.0:
            raise ValueError(f"nlos_receive_prob must lie in [0, 1], got {self.nlos_receive_prob!r}")
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        for s in self.canyon_sectors:
            if not 0.0 <= s.min_elevation_deg < 90.0:
                raise ValueError("mask elevations must lie in [0, 90)")
        # a model for each constellation generate_constellation draws, and no other
        names = {c.value for c in Constellation}
        for key in ("clock_models", "nlos_model"):
            got = sorted(map(str, getattr(self, key)))
            if set(got) != names:
                raise ValueError(f"{key} must name exactly {sorted(names)}, got {got}")
        for name, model in self.nlos_model.items():
            weights = [c.weight for c in model.components]
            stds = [c.std for c in model.components]
            if not (all(w >= 0 for w in weights) and 0 < sum(weights) < math.inf):
                raise ValueError(
                    f"nlos_model[{name!r}] weights must be non-negative with a positive sum,"
                    f" got {weights}"
                )
            if not all(s >= 0 for s in stds):
                raise ValueError(f"nlos_model[{name!r}] stds must be non-negative, got {stds}")

    @property
    def ref(self) -> Geodetic:
        return self.waypoints[0].geo

    def mask_elevation_deg(self, az_deg: float) -> float:
        mask = self.open_sky_min_elevation_deg
        for sector in self.canyon_sectors:
            if sector.contains(az_deg):
                mask = max(mask, sector.min_elevation_deg)
        return min(mask, 89.0)

    def block_floor_deg(self, t: float) -> float:
        floor = 0.0
        for interval in self.deep_intervals:
            if interval.active(t):
                floor = max(floor, interval.block_floor_deg)
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

    Each blend replaces the waypoint corner: it starts half a blend early on
    the incoming leg and lands exactly on the outgoing leg, which keeps
    position and velocity continuous with bounded acceleration.
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
            raise ValueError("coincident waypoints")
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
            raise ValueError(f"leg {i} too short for its corner blends")
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

    def az_el_deg(self, t: float) -> tuple[float, float]:
        az = (self.az0_deg + self.az_rate_deg * t) % 360.0
        el = self.el_center_deg + self.el_amp_deg * math.sin(self.el_omega * t + self.el_phase)
        return az, el


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
    constellations: tuple[Constellation, ...] = (Constellation.GPS, Constellation.BEIDOU)

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


def _draw_nlos_bias(rng: np.random.Generator, model: GmmModel) -> float:
    """Positive bias from the full mixture: most reflections add a few
    meters, the long-tail component adds tens."""
    weights = np.array([c.weight for c in model.components])
    idx = rng.choice(len(weights), p=weights / weights.sum())
    comp = model.components[idx]
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
    """Generate a complete dataset for the configuration."""
    rng = np.random.default_rng(cfg.seed)
    ref = cfg.ref
    rot_ref = rotation_global_from_local(ref)
    ref_ecef = geodetic_to_ecef(ref)
    pieces = build_trajectory(cfg)

    n_epochs = int(round(cfg.duration_s * cfg.gnss_rate_hz))
    epoch_t = np.arange(n_epochs) / cfg.gnss_rate_hz
    # whole epochs of IMU samples, so that the dataset reads back at any duration
    samples_per_epoch = int(round(cfg.imu_rate_hz / cfg.gnss_rate_hz))
    n_imu = n_epochs * samples_per_epoch
    imu_t = np.arange(1, n_imu + 1) / cfg.imu_rate_hz

    pos_e, vel_e = eval_trajectory(pieces, epoch_t)
    truth_pos = ref_ecef + (rot_ref @ pos_e.T).T
    truth_vel = (rot_ref @ vel_e.T).T

    yaw_true, imu_accel = _imu_truth(pieces, imu_t, cfg.imu_rate_hz, ref)
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

    # geometry of every (epoch, track) pair up front; the loop below only
    # applies the masks and draws, and its (epoch, track) order fixes the
    # sequence of random draws
    sat_grid = satellite_ecef_grid(tracks, epoch_t, ref)
    az_grid, el_grid = azimuth_elevation_grid(sat_grid, truth_pos)
    los = sat_grid - truth_pos[:, None, :]
    range_grid = np.sqrt(np.einsum("...i,...i->...", los, los))

    epochs: list[EpochMeasurements] = []
    for k in range(n_epochs):
        t = float(epoch_t[k])
        floor_deg = cfg.block_floor_deg(t)
        sats: list[SatObservation] = []
        for j, (track, az, el, rho) in enumerate(
            zip(tracks, az_grid[k].tolist(), el_grid[k].tolist(), range_grid[k].tolist())
        ):
            if el < HARD_HORIZON_RAD:
                continue
            mask_deg = cfg.mask_elevation_deg(math.degrees(az))
            el_deg = math.degrees(el)
            if el_deg < floor_deg:
                continue  # dense cover blocks everything below the floor
            if el_deg >= mask_deg:
                nlos = False
            elif el_deg >= mask_deg - cfg.nlos_depth_deg:
                # reflections flicker with receiver motion: a masked satellite
                # is only intermittently received, and then with a bias
                if rng.uniform() >= cfg.nlos_receive_prob:
                    continue
                nlos = True
            else:
                continue  # blocked outright
            name = track.constellation.value
            rho += clock_series[name][k]
            if cfg.los_sigma_m > 0:
                rho += rng.normal(0.0, cfg.los_sigma_m)
            snr_shift = 0.0
            if nlos:
                bias = _draw_nlos_bias(rng, cfg.nlos_model[name])
                rho += bias
                snr_model = cfg.snr_nlos
                # deeper reflections arrive weaker
                snr_shift = -cfg.snr_bias_slope_db_per_m * bias
            else:
                snr_model = cfg.snr_los
            snr = min(max(rng.normal(snr_model.mean + snr_shift, snr_model.sigma), 25.0), 55.0)
            sats.append(
                SatObservation(
                    sat_id=track.sat_id,
                    constellation=track.constellation,
                    sat_pos=sat_grid[k, j],
                    pseudorange=rho,
                    snr=snr,
                    elevation=el,
                    azimuth=az,
                    nlos_truth=nlos,
                )
            )

        attitude = EulerAngles(*epoch_att[k])
        epochs.append(EpochMeasurements(t, 1.0 / cfg.gnss_rate_hz, epoch_accel[k], attitude, sats))

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
    """
    weighting = weighting or WeightingParams()
    previous: Optional[np.ndarray] = None
    for epoch in epochs:
        epoch.fix_pos = None
        epoch.fix_hdop = None
        if not fgo.overdetermined(epoch.sats):
            continue
        try:
            # via the module, so a tracer wrapping fgo.single_epoch_wls sees set-up
            pos, _ = fgo.single_epoch_wls(epoch.sats, weighting, initial=previous)
            hdop = compute_hdop(epoch.sats, pos)
        except ValueError:  # GeometryError among them
            continue
        epoch.fix_pos = pos
        epoch.fix_hdop = hdop
        previous = pos


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
        lambda ws: [
            Waypoint(
                Geodetic.from_degrees(w["lat_deg"], w["lon_deg"], w.get("height_m", 0.0)),
                w["speed_mps"],
            )
            for w in ws
        ],
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
    "accel_bias_true": (lambda a: list(map(float, a)), np.array),
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


def _non_numbers(value) -> list:
    """The leaves of a nested JSON value (lists and object values) that are
    not numbers; a bool counts as none."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _non_numbers(item)]
    return [] if isinstance(value, (int, float)) and not isinstance(value, bool) else [value]


def config_from_dict(data: dict) -> SimConfig:
    """Inverse of :func:`config_to_dict`. An absent key takes ``SimConfig``'s
    default; ``waypoints`` is required, and an unknown key, a numeric field
    whose value is not a number (a bool counts as none) or a nested value
    holding anything but numbers is an error."""
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
    if "waypoints" not in data:
        raise ValueError("a scenario needs 'waypoints'")
    # fields() gives the annotations as strings (postponed evaluation)
    numeric = {f.name: f.type for f in fields(SimConfig) if f.type in ("float", "int")}
    kwargs = {}
    for name, value in data.items():
        if name in numeric:
            kinds = int if numeric[name] == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "an integer" if kinds is int else "a number"
                raise ValueError(f"scenario key {name!r} must be {kind}, got {value!r}")
        elif bad := _non_numbers(value):
            raise ValueError(f"scenario key {name!r} must hold only numbers, got {bad[0]!r}")
        try:
            kwargs[name] = _JSON_CODECS[name][1](value) if name in _JSON_CODECS else value
        except (KeyError, TypeError) as exc:
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
    for path, columns in (("truth.csv", truth), ("imu.csv", imu)):
        for name, values in columns.items():
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: column {name!r} holds a value that is not finite")

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
