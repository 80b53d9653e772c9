import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins import fgo
from gnssins.canyon_sim import (
    CSV_BLOCK,
    GNSS_COLUMNS,
    HARD_HORIZON_RAD,
    IMU_BLOCK,
    IMU_COLUMNS,
    MEO_RADIUS_M,
    TRUTH_COLUMNS,
    ClockModel,
    DeepInterval,
    MaskSector,
    SatTrack,
    SimConfig,
    SnrModel,
    Waypoint,
    _component_cdf,
    _draw_nlos_bias,
    _truncated_positive_normal,
    build_trajectory,
    config_from_dict,
    config_to_dict,
    default_canyon_config,
    eval_trajectory,
    generate_constellation,
    generate_lc_fixes,
    noise_free_config,
    read_dataset,
    simulate,
    write_dataset,
)
from gnssins.frames import (
    EulerAngles,
    Geodetic,
    ecef_to_geodetic,
    ecef_to_geodetic_array,
    enu_to_ecef,
    geodetic_to_ecef,
    global_to_local_array,
    rotation_global_from_local,
    rotation_local_from_body,
)
from gnssins.cli import main
from gnssins.noise_models import GeometryError
from gnssins.residual_analysis import GmmComponent, GmmModel
from gnssins.types import Constellation


def az_el_deg(track: SatTrack, t: float) -> tuple[float, float]:
    """A track's azimuth and elevation (degrees) at time ``t``."""
    az = (track.az0_deg + track.az_rate_deg * t) % 360.0
    el = track.el_center_deg + track.el_amp_deg * math.sin(track.el_omega * t + track.el_phase)
    return az, el


def satellite_ecef(track: SatTrack, t: float, ref: Geodetic) -> np.ndarray:
    """Scalar oracle of ``satellite_ecef_grid``: ECEF position on the MEO shell
    along the track's az/el at ``ref``."""
    az_deg, el_deg = az_el_deg(track, t)
    az, el = math.radians(az_deg), math.radians(el_deg)
    u_enu = np.array(
        [math.sin(az) * math.cos(el), math.cos(az) * math.cos(el), math.sin(el)]
    )
    r0 = geodetic_to_ecef(ref)
    u = rotation_global_from_local(ref) @ u_enu
    ru = float(r0 @ u)
    slant = -ru + math.sqrt(ru**2 + MEO_RADIUS_M**2 - float(r0 @ r0))
    return r0 + slant * u


def azimuth_elevation(sat_pos: np.ndarray, receiver: np.ndarray) -> tuple[float, float]:
    """Scalar oracle of ``azimuth_elevation_grid``: azimuth/elevation (radians)
    of a satellite seen from an ECEF receiver."""
    geo = ecef_to_geodetic(receiver)
    enu = rotation_global_from_local(geo).T @ (sat_pos - receiver)
    rng = np.linalg.norm(enu)
    el = math.asin(enu[2] / rng)
    az = math.atan2(enu[0], enu[1]) % (2.0 * math.pi)
    return az, el


def sector_contains(sector: MaskSector, az_deg: float) -> bool:
    """Scalar oracle of ``MaskSector.contains``."""
    az = az_deg % 360.0
    lo, hi = sector.az_min_deg % 360.0, sector.az_max_deg % 360.0
    if lo <= hi:
        return lo <= az <= hi
    return az >= lo or az <= hi


def mask_elevation(cfg: SimConfig, az_deg: float) -> float:
    """Scalar oracle of ``SimConfig.mask_elevation_deg``."""
    mask = cfg.open_sky_min_elevation_deg
    for sector in cfg.canyon_sectors:
        if sector_contains(sector, az_deg):
            mask = max(mask, sector.min_elevation_deg)
    return min(mask, 89.0)


def block_floor(cfg: SimConfig, t: float) -> float:
    """Scalar oracle of ``SimConfig.block_floor_deg``."""
    floor = 0.0
    for interval in cfg.deep_intervals:
        if interval.t_start <= t < interval.t_end:
            floor = max(floor, interval.block_floor_deg)
    return floor


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _sectors(lo, hi):
    """Mask sectors with ends in [lo, hi] that differ modulo 360, as SimConfig requires."""
    return st.builds(MaskSector, _floats(lo, hi), _floats(lo, hi), _floats(0.0, 89.9)).filter(
        lambda s: s.az_min_deg % 360.0 != s.az_max_deg % 360.0
    )


# deep intervals that end after they start, as SimConfig requires
_INTERVAL = st.builds(
    lambda start, span, floor: DeepInterval(start, start + span, floor),
    _floats(0.0, 300.0),
    _floats(0.1, 300.0),
    _floats(0.0, 89.0),
)


def small_canyon(seed=3, duration=40.0):
    cfg = default_canyon_config(seed=seed)
    return replace(cfg, duration_s=duration, deep_intervals=[])


class TestTrajectory:
    def test_constant_speed_on_segment_interior(self):
        cfg = noise_free_config()
        pieces = build_trajectory(cfg)
        t = np.linspace(1.0, 20.0, 50)
        _, vel = eval_trajectory(pieces, t)
        speeds = np.linalg.norm(vel, axis=1)
        assert np.allclose(speeds, cfg.waypoints[0].speed, atol=1e-9)

    def test_path_length_matches_segments(self):
        cfg = small_canyon()
        pieces = build_trajectory(cfg)
        # integrate speed; on cruise pieces this telescopes exactly
        total = 0.0
        for p in pieces:
            if np.allclose(p.accel, 0.0):
                total += np.linalg.norm(p.v0) * p.duration
        segs = sum(
            np.linalg.norm(geodetic_to_ecef(b.geo) - geodetic_to_ecef(a.geo))
            for a, b in zip(cfg.waypoints, cfg.waypoints[1:])
        )
        # blends cut the corners, so cruise length is slightly below the
        # polyline length but within the blend footprint
        assert total <= segs + 1e-6

    def test_position_derivative_matches_velocity(self):
        cfg = small_canyon()
        pieces = build_trajectory(cfg)
        h = 1e-3
        for t in (3.0, 11.0, 17.0, 29.0):
            (p_minus,), _ = (x for x in eval_trajectory(pieces, np.array([t - h])))
            (p_plus,), _ = (x for x in eval_trajectory(pieces, np.array([t + h])))
            _, (v,) = eval_trajectory(pieces, np.array([t]))
            fd = (p_plus - p_minus) / (2 * h)
            assert np.linalg.norm(fd - v) < 1e-3

    def test_velocity_continuous_across_blends(self):
        cfg = small_canyon(duration=200.0)
        pieces = build_trajectory(cfg)
        for a, b in zip(pieces, pieces[1:]):
            _, (v_end,) = eval_trajectory([a], np.array([a.t0 + a.duration]))
            _, (v_start,) = eval_trajectory([b], np.array([b.t0]))
            assert np.allclose(v_end, v_start, atol=1e-9)

    def test_acceleration_bounded(self):
        cfg = small_canyon(duration=250.0)
        for p in build_trajectory(cfg):
            assert np.linalg.norm(p.accel) <= cfg.max_accel + 1e-9

    def test_route_shorter_than_the_run_extends_its_last_leg(self):
        # the noise-free route is 500 m at 8 m/s, so it ends at 62.5 s of 90
        cfg = noise_free_config(duration_s=90.0)
        pieces = build_trajectory(cfg)
        last = pieces[-1]
        assert last.t0 == pytest.approx(62.5) and last.t0 + last.duration == pytest.approx(90.0)
        assert np.array_equal(last.accel, np.zeros(3))
        leg = pieces[-2].v0
        assert np.array_equal(last.v0, leg) and np.linalg.norm(leg) == pytest.approx(8.0)
        ds = simulate(cfg)
        after = ds.truth_t > 62.5
        assert after.sum() == 27
        rot = rotation_global_from_local(cfg.ref)
        assert np.abs(ds.truth_vel[after] - rot @ leg).max() <= 1e-9
        steps = np.diff(ds.truth_pos[after], axis=0)
        assert np.abs(steps - rot @ leg).max() <= 1e-6
        # the IMU sees the same straight run past the route's end: no force,
        # the last leg's heading
        imu_after = ds.imu_t > 62.5
        assert np.abs(ds.imu_accel[imu_after]).max() <= 1e-9
        heading = math.atan2(leg[0], leg[1])
        assert np.abs(ds.imu_attitude[imu_after, 0] - heading).max() <= 1e-12
        assert np.abs(ds.truth_attitude[after, 0] - heading).max() <= 1e-12

    def test_coincident_waypoints_rejected(self):
        # once accepted here, and rejected inside simulate without naming a key
        ref = Geodetic.from_degrees(22.3, 114.2, 5.0)
        with pytest.raises(ValueError, match="waypoints"):
            SimConfig(waypoints=[Waypoint(ref, 5.0), Waypoint(ref, 5.0)], duration_s=10.0)


class TestScenarioShape:
    """A ``SimConfig`` is the one judge of a scenario: it derives the run's
    shape once, and every scenario it accepts simulates in that shape."""

    @settings(max_examples=60, deadline=None)
    @given(
        # ENU offsets (m) and speeds (m/s): equal offsets give zero-length legs,
        # and a small max_accel gives blends longer than their legs
        route=st.lists(
            st.tuples(_floats(-300.0, 300.0), _floats(-300.0, 300.0), _floats(0.5, 30.0)),
            min_size=2,
            max_size=5,
        ),
        duration=_floats(1.0, 20.0),
        max_accel=_floats(0.001, 5.0),
    )
    def test_every_accepted_scenario_simulates(self, route, duration, max_accel):
        ref = Geodetic.from_degrees(22.32, 114.17, 5.0)
        waypoints = [
            Waypoint(ecef_to_geodetic(enu_to_ecef(ref, np.array([e, n, 0.0]))), v)
            for e, n, v in route
        ]
        try:
            cfg = SimConfig(waypoints, duration, imu_rate_hz=10.0, max_accel=max_accel)
        except ValueError as exc:
            assert "waypoints" in str(exc) or "max_accel" in str(exc), exc
            return
        ds = simulate(cfg)
        assert ds.n_epochs == cfg.n_epochs
        assert ds.imu_t.size == cfg.n_epochs * cfg.samples_per_epoch

    def test_a_scenario_cannot_be_changed(self):
        # a field assigned after construction once bypassed every check
        cfg = noise_free_config(duration_s=10.0)
        derived = ["n_epochs", "samples_per_epoch", "trajectory"]
        for name in [f.name for f in fields(SimConfig)] + derived:
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, getattr(cfg, name))

    def test_its_containers_cannot_be_edited(self):
        # its lists, dicts and array could once be edited in place: the edit
        # passed no check, simulate ran on the trajectory derived before it,
        # and config_to_dict wrote a scenario file that no longer loaded
        cfg = noise_free_config(duration_s=10.0)
        with pytest.raises(AttributeError):
            cfg.waypoints.append(Waypoint(cfg.waypoints[0].geo, -1.0))
        with pytest.raises(AttributeError):
            cfg.deep_intervals.append(DeepInterval(5.0, 1.0, math.nan))
        with pytest.raises(AttributeError):
            cfg.canyon_sectors.append(MaskSector(0.0, 90.0, 95.0))
        with pytest.raises(TypeError):
            cfg.nlos_model["GPS"] = GmmModel((GmmComponent(1.0, math.nan, 1.0),))
        with pytest.raises(FrozenInstanceError):
            cfg.nlos_model["GPS"].components = (GmmComponent(1.0, math.nan, 1.0),)
        with pytest.raises(TypeError):
            cfg.clock_models["BeiDou"] = ClockModel(math.inf, 0.0)
        with pytest.raises(ValueError, match="read-only"):
            cfg.accel_bias_true[0] = math.nan

    def test_it_keeps_copies_of_what_it_was_made_from(self):
        base = noise_free_config(duration_s=10.0)
        waypoints, clocks, bias = list(base.waypoints), dict(base.clock_models), np.zeros(3)
        cfg = SimConfig(waypoints, duration_s=10.0, clock_models=clocks, accel_bias_true=bias)
        waypoints.append(Waypoint(waypoints[0].geo, -1.0))
        clocks["GPS"] = ClockModel(math.inf, 0.0)
        bias[0] = math.nan
        assert len(cfg.waypoints) == 2
        assert cfg.clock_models["GPS"] == base.clock_models["GPS"]
        assert np.array_equal(cfg.accel_bias_true, np.zeros(3))

    def test_its_scenario_file_reproduces_the_dataset(self, tmp_path):
        # config_to_dict and config_from_dict take the immutable containers
        # as they took lists and dicts: the noise-free preset's file reloads
        # to the same scenario, which simulates the same bytes (its waypoints
        # survive the trip through degrees)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["simulate", "--preset", "noise-free", "--out", str(first)]) == 0
        config = str(first / "sim_config.json")
        assert main(["simulate", "--config", config, "--out", str(second)]) == 0
        for name in ("truth.csv", "imu.csv", "gnss.csv", "sim_config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        cfg = noise_free_config()
        assert_same_config(config_from_dict(json.loads((first / "sim_config.json").read_text())), cfg)
        assert json.loads(json.dumps(config_to_dict(cfg))) == config_to_dict(cfg)


class TestConstellation:
    def test_elevations_in_range(self):
        cfg = default_canyon_config()
        rng = np.random.default_rng(1)
        tracks = generate_constellation(cfg, rng)
        assert len(tracks) == cfg.n_satellites
        for track in tracks:
            for t in np.linspace(0, 300, 31):
                _, el = az_el_deg(track, t)
                assert 0.0 < el <= 90.0

    def test_az_el_round_trip(self):
        cfg = default_canyon_config()
        rng = np.random.default_rng(2)
        tracks = generate_constellation(cfg, rng)
        receiver = geodetic_to_ecef(cfg.ref)
        for track in tracks[:6]:
            pos = satellite_ecef(track, 100.0, cfg.ref)
            az, el = azimuth_elevation(pos, receiver)
            az_t, el_t = az_el_deg(track, 100.0)
            assert math.degrees(el) == pytest.approx(el_t, abs=0.1)
            assert math.degrees(az) % 360 == pytest.approx(az_t % 360, abs=0.1)

    def test_meo_shell_radius(self):
        cfg = default_canyon_config()
        rng = np.random.default_rng(3)
        track = generate_constellation(cfg, rng)[0]
        pos = satellite_ecef(track, 0.0, cfg.ref)
        assert np.linalg.norm(pos) == pytest.approx(26_560e3, rel=1e-9)

    def test_same_seed_same_constellation(self):
        cfg = default_canyon_config()
        t1 = generate_constellation(cfg, np.random.default_rng(7))
        t2 = generate_constellation(cfg, np.random.default_rng(7))
        assert t1 == t2


class TestSimulate:
    def test_noise_free_pseudoranges_exact(self):
        ds = simulate(noise_free_config(duration_s=20.0))
        for k, epoch in enumerate(ds.epochs):
            for sat in epoch.sats:
                rng = np.linalg.norm(sat.sat_pos - ds.truth_pos[k])
                clock = ds.truth_clocks[sat.constellation.value][k]
                assert sat.pseudorange == pytest.approx(rng + clock, abs=1e-6)

    def test_noise_free_imu_zero(self):
        ds = simulate(noise_free_config(duration_s=20.0))
        assert np.allclose(ds.imu_accel, 0.0, atol=1e-9)

    def test_configured_bias_recovered(self):
        from dataclasses import replace

        cfg = replace(noise_free_config(duration_s=20.0), accel_bias_true=np.array([0.1, 0.0, 0.0]))
        ds = simulate(cfg)
        assert np.allclose(ds.imu_accel.mean(axis=0), [0.1, 0.0, 0.0], atol=1e-6)

    def test_nlos_labels_match_mask(self):
        ds = simulate(small_canyon())
        cfg = small_canyon()
        for k, epoch in enumerate(ds.epochs):
            for sat in epoch.sats:
                mask = cfg.mask_elevation_deg(math.degrees(sat.azimuth))
                if sat.nlos_truth:
                    assert math.degrees(sat.elevation) < mask
                else:
                    assert math.degrees(sat.elevation) >= mask

    def test_nlos_bias_positive(self):
        ds = simulate(small_canyon())
        # NLOS range errors are LOS noise plus a non-negative bias draw
        for k, epoch in enumerate(ds.epochs):
            for sat in epoch.sats:
                if sat.nlos_truth:
                    err = ds.range_error(k, sat)
                    assert err > -4.0 * 2.0  # bias >= 0 on top of LOS noise

    def test_nlos_mixture_mean(self):
        from dataclasses import replace

        # isolate the bias draw: no LOS noise, everything below the (high)
        # open-sky mask is NLOS
        cfg = replace(
            small_canyon(duration=300.0),
            los_sigma_m=0.0,
            canyon_sectors=[],
            open_sky_min_elevation_deg=85.0,
            nlos_depth_deg=85.0,
            nlos_receive_prob=1.0,
            n_satellites=20,
            n_high_satellites=0,
            seed=12,
        )
        ds = simulate(cfg)
        samples = [
            ds.range_error(k, s)
            for k, e in enumerate(ds.epochs)
            for s in e.sats
            if s.nlos_truth and s.constellation is Constellation.GPS
        ]
        samples = np.array(samples)
        assert samples.size > 2000
        model = cfg.nlos_model["GPS"]
        mix_mean = sum(c.weight * c.mean for c in model.components)
        mix_var = sum(
            c.weight * (c.std**2 + c.mean**2) for c in model.components
        ) - mix_mean**2
        # truncation at zero shifts the mean up slightly; allow CLT + shift
        tol = 3.0 * math.sqrt(mix_var / samples.size) + 1.5
        assert abs(samples.mean() - mix_mean) < tol

    def test_deterministic_dataset(self):
        cfg = small_canyon(seed=9)
        d1, d2 = simulate(cfg), simulate(cfg)
        assert np.array_equal(d1.truth_pos, d2.truth_pos)
        assert np.array_equal(d1.imu_accel, d2.imu_accel)
        for e1, e2 in zip(d1.epochs, d2.epochs):
            assert len(e1.sats) == len(e2.sats)
            for s1, s2 in zip(e1.sats, e2.sats):
                assert s1.pseudorange == s2.pseudorange
                assert s1.snr == s2.snr

    def test_deep_interval_blocks_low_elevations(self):
        cfg = default_canyon_config()
        ds = simulate(cfg)
        for k, epoch in enumerate(ds.epochs):
            floor = cfg.block_floor_deg(epoch.t)
            if floor > 0:
                for sat in epoch.sats:
                    assert math.degrees(sat.elevation) >= floor


def turning_canyon(seed, duration=40.0):
    """Short canyon whose route turns twice, so yaw and acceleration vary."""
    from dataclasses import replace

    cfg = small_canyon(seed=seed, duration=duration)
    ref = cfg.ref
    corners = [(0.0, 0.0), (90.0, 120.0), (240.0, 120.0), (240.0, 270.0)]
    waypoints = [
        Waypoint(ecef_to_geodetic(enu_to_ecef(ref, np.array([e, n, 0.0]))), 8.0)
        for e, n in corners
    ]
    return replace(cfg, waypoints=waypoints)


def replay_imu_noise(cfg):
    """The generator after the IMU draws: (generator, attitude noise, accel noise)."""
    rng = np.random.default_rng(cfg.seed)
    n_imu = int(round(cfg.duration_s * cfg.imu_rate_hz))
    att = np.zeros((n_imu, 3))
    acc = np.zeros((n_imu, 3))
    if cfg.attitude_noise_deg > 0:
        att = rng.normal(0.0, math.radians(cfg.attitude_noise_deg), size=(n_imu, 3))
    if cfg.accel_noise_sigma > 0:
        acc = rng.normal(0.0, cfg.accel_noise_sigma, size=(n_imu, 3))
    return rng, att, acc


def scalar_visible(cfg, ds, tracks):
    """Per epoch, the (track, sat_pos, azimuth, elevation, nlos) of each pair
    that is LOS (nlos False) or an NLOS candidate (nlos True), from the scalar
    geometry and the scalar rule, one (epoch, track) pair at a time."""
    out = []
    for k, t in enumerate(ds.truth_t.tolist()):
        pairs = []
        for track in tracks:
            sat_pos = satellite_ecef(track, t, cfg.ref)
            az, el = azimuth_elevation(sat_pos, ds.truth_pos[k])
            if el < HARD_HORIZON_RAD:
                continue
            mask_deg = mask_elevation(cfg, math.degrees(az))
            el_deg = math.degrees(el)
            if el_deg < block_floor(cfg, t):
                continue  # dense cover blocks everything below the floor
            if el_deg >= mask_deg:
                pairs.append((track, sat_pos, az, el, False))
            elif el_deg >= mask_deg - cfg.nlos_depth_deg:
                pairs.append((track, sat_pos, az, el, True))
        out.append(pairs)
    return out


def scalar_observations(cfg, ds):
    """Per-epoch (sat_id, nlos, snr, pseudorange, sat_pos, elevation, azimuth)
    from :func:`scalar_visible`, drawing from the generator in the order
    ``simulate`` must keep."""
    rng, _, _ = replay_imu_noise(cfg)
    tracks = generate_constellation(cfg, rng)
    out = []
    for k, pairs in enumerate(scalar_visible(cfg, ds, tracks)):
        obs = []
        for track, sat_pos, az, el, nlos in pairs:
            if nlos and rng.uniform() >= cfg.nlos_receive_prob:
                continue
            name = track.constellation.value
            rho = float(np.linalg.norm(sat_pos - ds.truth_pos[k])) + ds.truth_clocks[name][k]
            if cfg.los_sigma_m > 0:
                rho += rng.normal(0.0, cfg.los_sigma_m)
            shift, snr_model = 0.0, cfg.snr_los
            if nlos:
                components = cfg.nlos_model[name].components
                weights = np.array([c.weight for c in components])
                comp = components[rng.choice(len(weights), p=weights / weights.sum())]
                bias = 0.0
                for _ in range(100):
                    draw = rng.normal(comp.mean, comp.std)
                    if draw >= 0.0:
                        bias = float(draw)
                        break
                rho += bias
                shift, snr_model = -cfg.snr_bias_slope_db_per_m * bias, cfg.snr_nlos
            snr = float(np.clip(rng.normal(snr_model.mean + shift, snr_model.sigma), 25.0, 55.0))
            obs.append((track.sat_id, nlos, snr, rho, sat_pos, el, az))
        out.append(obs)
    return out


def angle_gap(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


class TestBulkGeometryMatchesScalar:
    """``simulate`` computes its geometry and visibility in bulk; the scalar
    functions are the oracle."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        duration=st.sampled_from([12.0, 30.0]),
        deep=st.booleans(),
        # a sector that wraps past north, over the canyon's own sectors
        wrap=st.none()
        | st.builds(MaskSector, _floats(200.0, 359.0), _floats(1.0, 160.0), _floats(20.0, 80.0)),
    )
    def test_observations_match_scalar_loop(self, seed, duration, deep, wrap):
        cfg = turning_canyon(seed, duration)
        if deep:
            cfg = replace(cfg, deep_intervals=[DeepInterval(4.0, 9.0, 60.0)])
        if wrap:
            cfg = replace(cfg, canyon_sectors=[*cfg.canyon_sectors, wrap])
        ds = simulate(cfg)
        expected = scalar_observations(cfg, ds)
        for epoch, ref_obs in zip(ds.epochs, expected):
            assert [(s.sat_id, s.nlos_truth) for s in epoch.sats] == [o[:2] for o in ref_obs]
            for sat, (_, _, snr, rho, sat_pos, el, az) in zip(epoch.sats, ref_obs):
                assert sat.snr == snr
                assert abs(sat.pseudorange - rho) <= 1e-6
                assert np.abs(sat.sat_pos - sat_pos).max() <= 1e-6
                assert abs(sat.elevation - el) <= 1e-9
                assert angle_gap(sat.azimuth, az) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        sectors=st.lists(_sectors(-360.0, 720.0), max_size=4),
        intervals=st.lists(_INTERVAL, max_size=4),
        open_sky=_floats(0.0, 89.9),  # SimConfig takes [0, 90)
        az=st.lists(_floats(-720.0, 720.0), max_size=8),
        t=st.lists(_floats(-10.0, 700.0), max_size=8),
    )
    def test_mask_and_floor_match_scalar_rule(self, sectors, intervals, open_sky, az, t):
        cfg = replace(
            noise_free_config(duration_s=10.0),
            canyon_sectors=sectors,
            deep_intervals=intervals,
            open_sky_min_elevation_deg=open_sky,
        )
        # every sector end, also a turn either side of it, and every interval edge
        ends = [s.az_min_deg for s in sectors] + [s.az_max_deg for s in sectors]
        az = np.array(az + [e + turn for e in ends for turn in (-360.0, 0.0, 360.0)])
        t = np.array(t + [d.t_start for d in intervals] + [d.t_end for d in intervals])
        mask = cfg.mask_elevation_deg(az[None, :])
        assert mask.shape == (1, az.size)
        assert np.array_equal(mask[0], [mask_elevation(cfg, a) for a in az.tolist()])
        assert np.array_equal(cfg.block_floor_deg(t), [block_floor(cfg, x) for x in t.tolist()])

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), prob=_floats(0.0, 1.0), deep=st.booleans())
    def test_los_pairs_do_not_depend_on_receive_prob(self, seed, prob, deep):
        cfg = turning_canyon(seed, 12.0)
        if deep:
            cfg = replace(cfg, deep_intervals=[DeepInterval(4.0, 9.0, 60.0)])
        tracks = generate_constellation(cfg, replay_imu_noise(cfg)[0])
        visible = scalar_visible(cfg, simulate(cfg), tracks)
        los = [[p[0].sat_id for p in pairs if not p[-1]] for pairs in visible]
        candidates = [[p[0].sat_id for p in pairs if p[-1]] for pairs in visible]
        assert any(candidates)

        def received(p):
            epochs = simulate(replace(cfg, nlos_receive_prob=p)).epochs
            return (
                [[s.sat_id for s in e.sats if not s.nlos_truth] for e in epochs],
                [[s.sat_id for s in e.sats if s.nlos_truth] for e in epochs],
            )

        runs = {p: received(p) for p in (0.0, prob, 1.0)}
        for got_los, got_nlos in runs.values():
            assert got_los == los
            # the NLOS satellites received are candidates, in track order
            assert got_nlos == [[i for i in c if i in g] for g, c in zip(got_nlos, candidates)]
        assert runs[0.0][1] == [[] for _ in visible]
        assert runs[1.0][1] == candidates

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    def test_imu_matches_per_sample_formula(self, seed, picks):
        cfg = turning_canyon(seed)
        ds = simulate(cfg)
        _, att_noise, acc_noise = replay_imu_noise(cfg)
        pieces = build_trajectory(cfg)
        _, vel_edges = eval_trajectory(pieces, np.concatenate(([0.0], ds.imu_t)))
        accel_enu = np.diff(vel_edges, axis=0) * cfg.imu_rate_hz
        pos_mid, vel_mid = eval_trajectory(pieces, ds.imu_t)
        yaw = np.arctan2(vel_mid[:, 0], vel_mid[:, 1])
        rot_ref = rotation_global_from_local(cfg.ref)
        ref_ecef = geodetic_to_ecef(cfg.ref)
        assert np.array_equal(ds.imu_attitude[:, 0], yaw + att_noise[:, 0])
        for i in (int(p * ds.imu_t.size) for p in picks):
            geo = ecef_to_geodetic(ref_ecef + rot_ref @ pos_mid[i])
            r_lb = rotation_local_from_body(EulerAngles(yaw[i], 0.0, 0.0))
            f = r_lb.T @ (rotation_global_from_local(geo).T @ (rot_ref @ accel_enu[i]))
            expected = f + cfg.accel_bias_true + acc_noise[i]
            assert np.abs(ds.imu_accel[i] - expected).max() <= 1e-12


def whole_stream_imu(cfg):
    """The IMU stream as one whole-array computation, each temporary as long
    as the stream: (specific force, attitude) per sample and (mean force,
    attitude, truth yaw) per epoch. The oracle of the blocked stream
    ``simulate`` builds."""
    n_imu = cfg.n_epochs * cfg.samples_per_epoch
    imu_t = np.arange(1, n_imu + 1) / cfg.imu_rate_hz
    pos, vel = eval_trajectory(cfg.trajectory, np.concatenate(([0.0], imu_t)))
    accel_enu = np.diff(vel, axis=0) * cfg.imu_rate_hz
    yaw = np.arctan2(vel[1:, 0], vel[1:, 1])
    rot_ref = rotation_global_from_local(cfg.ref)
    lat, lon, _ = ecef_to_geodetic_array(geodetic_to_ecef(cfg.ref) + pos[1:] @ rot_ref.T)
    a_local = global_to_local_array(lat, lon, accel_enu @ rot_ref.T)
    cy, sy = np.cos(yaw), np.sin(yaw)
    force = np.column_stack(
        (cy * a_local[:, 0] + sy * a_local[:, 1], -sy * a_local[:, 0] + cy * a_local[:, 1], a_local[:, 2])
    )
    _, att_noise, acc_noise = replay_imu_noise(cfg)
    attitude = np.zeros((n_imu, 3))
    attitude[:, 0] = yaw
    attitude += att_noise
    force += cfg.accel_bias_true
    force += acc_noise
    spe = cfg.samples_per_epoch
    epoch_force = np.zeros((cfg.n_epochs, 3))
    epoch_force[1:] = force.reshape(cfg.n_epochs, spe, 3)[:-1].mean(axis=1)
    last = np.maximum(spe * np.arange(cfg.n_epochs) - 1, 0)
    return force, attitude, epoch_force, attitude[last], yaw[last]


class TestBlockedImuStream:
    @pytest.mark.parametrize("imu_rate", [100.0, 400.0])
    def test_blocked_stream_equals_the_whole_array_computation(self, imu_rate):
        # 37 s of samples is no whole number of blocks, and the route turns,
        # so the force varies across block edges
        cfg = replace(turning_canyon(11, 37.0), imu_rate_hz=imu_rate)
        n_imu = cfg.n_epochs * cfg.samples_per_epoch
        assert n_imu > IMU_BLOCK and n_imu % IMU_BLOCK
        assert cfg.attitude_noise_deg > 0 and cfg.accel_noise_sigma > 0
        ds = simulate(cfg)
        force, attitude, epoch_force, epoch_attitude, truth_yaw = whole_stream_imu(cfg)
        assert np.array_equal(ds.imu_accel, force)
        assert np.array_equal(ds.imu_attitude, attitude)
        assert np.array_equal([e.accel_body_mean for e in ds.epochs], epoch_force)
        assert np.array_equal([astuple(e.attitude) for e in ds.epochs], epoch_attitude)
        assert np.array_equal(ds.truth_attitude[:, 0], truth_yaw)


class TestLcFixes:
    def test_noise_free_fix_matches_truth(self):
        ds = simulate(noise_free_config(duration_s=20.0))
        generate_lc_fixes(ds.epochs)
        for k, epoch in enumerate(ds.epochs):
            assert epoch.fix_available
            assert np.linalg.norm(epoch.fix_pos - ds.truth_pos[k]) < 1e-6

    def test_fix_unavailable_with_few_satellites(self):
        ds = simulate(noise_free_config(duration_s=10.0))
        for epoch in ds.epochs:
            epoch.sats = epoch.sats[:4]
        generate_lc_fixes(ds.epochs)
        assert not any(e.fix_available for e in ds.epochs)

    @pytest.mark.parametrize(
        "cfg, fixed",
        [
            (default_canyon_config(), 180),
            # every epoch's own cost is rounding noise
            (noise_free_config(), 60),
            (replace(default_canyon_config(99), duration_s=100.0), 65),
            (replace(default_canyon_config(31), duration_s=100.0), 65),
        ],
        ids=["default-canyon", "noise-free", "canyon-100s-seed-99", "canyon-100s-seed-31"],
    )
    def test_one_solve_alone_then_one_stack(self, cfg, fixed):
        # every overdetermined epoch is solved in one stack from the Earth's
        # centre: no epoch alone, and no LM
        ds = simulate(cfg)
        with (
            mock.patch.object(fgo, "solve_lm", wraps=fgo.solve_lm) as lm,
            mock.patch.object(fgo, "single_epoch_wls", wraps=fgo.single_epoch_wls) as alone,
            mock.patch.object(fgo.EpochWls, "solve", autospec=True, side_effect=fgo.EpochWls.solve) as stack,
        ):
            generate_lc_fixes(ds.epochs)
        assert (alone.call_count, lm.call_count, stack.call_count) == (0, 0, 1)
        assert sum(e.fix_available for e in ds.epochs) == fixed

    @pytest.mark.parametrize("error", [GeometryError, np.linalg.LinAlgError])
    def test_a_failed_stack_leaves_its_epochs_without_a_fix(self, error):
        ds = simulate(noise_free_config(duration_s=10.0))
        with mock.patch.object(fgo.EpochWls, "solve", side_effect=error("stacked solve failed")) as stack:
            generate_lc_fixes(ds.epochs)
        assert stack.call_count == 1
        assert all(e.fix_pos is None and e.fix_hdop is None for e in ds.epochs)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0]) | _floats(0.01, 1.0), min_size=1, max_size=4).filter(
            lambda w: sum(w) > 0
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nlos_component_draws_match_generator_choice(self, weights, seed):
        # simulate bisects a cdf built once per model where it called
        # rng.choice per draw; numpy's choice is the reference, so that a
        # change in how numpy draws fails here
        model = GmmModel(tuple(GmmComponent(w, 10.0 * i, 1.0 + i) for i, w in enumerate(weights)))
        cdf = _component_cdf(model)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        p = np.array(weights) / np.sum(weights)
        for _ in range(50):
            comp = model.components[reference.choice(len(p), p=p)]
            want = _truncated_positive_normal(reference, comp.mean, comp.std)
            assert _draw_nlos_bias(ours, model, cdf) == want


_GMM = st.lists(
    st.builds(GmmComponent, _floats(0.01, 1.0), _floats(-5.0, 60.0), _floats(0.1, 20.0)),
    min_size=1,
    max_size=3,
).map(lambda comps: GmmModel(tuple(comps)))
_CLOCK = st.builds(ClockModel, _floats(-1e3, 1e3), _floats(-5.0, 5.0))
_WAYPOINT = st.builds(
    lambda lat, lon, h, v: Waypoint(Geodetic.from_degrees(lat, lon, h), v),
    _floats(-80.0, 80.0),
    _floats(-179.9, 179.9),
    _floats(-100.0, 1000.0),
    _floats(0.5, 30.0),
)


def _legs_fit(waypoints) -> bool:
    """Whether every leg is over 10 km, which fits the corner blends of any
    speed and max_accel drawn here: a blend lasts at most 60 m/s / 0.2 m/s²,
    so it cuts at most 30 m/s · 150 s = 4.5 km off each end of a leg."""
    ecef = [geodetic_to_ecef(w.geo) for w in waypoints]
    return all(np.linalg.norm(b - a) > 10e3 for a, b in zip(ecef, ecef[1:]))


# SimConfig takes only an IMU rate that is a whole multiple of the GNSS rate,
# so the two are drawn together
_RATES = st.builds(
    lambda gnss, steps: {"gnss_rate_hz": gnss, "imu_rate_hz": gnss * steps},
    _floats(0.1, 10.0),
    st.integers(1, 400),
)
_FIELD_CHANGES = st.fixed_dictionaries(
    {},
    optional={
        # routes whose legs fit their blends; test_every_accepted_scenario_simulates
        # covers the rest
        "waypoints": st.lists(_WAYPOINT, min_size=2, max_size=4).filter(_legs_fit),
        "duration_s": _floats(1.0, 600.0),
        "los_sigma_m": _floats(0.0, 10.0),
        # SimConfig requires this and clock_models to name exactly GPS and BeiDou
        "nlos_model": st.fixed_dictionaries({"GPS": _GMM, "BeiDou": _GMM}),
        "canyon_sectors": st.lists(_sectors(0.0, 360.0), max_size=3),
        "open_sky_min_elevation_deg": _floats(0.0, 30.0),
        "nlos_depth_deg": _floats(0.0, 60.0),
        "nlos_receive_prob": _floats(0.0, 1.0),
        "snr_bias_slope_db_per_m": _floats(0.0, 2.0),
        "deep_intervals": st.lists(_INTERVAL, max_size=3),
        "accel_bias_true": st.lists(_floats(-0.1, 0.1), min_size=3, max_size=3).map(np.array),
        "accel_noise_sigma": _floats(0.0, 1.0),
        "attitude_noise_deg": _floats(0.0, 1.0),
        "clock_models": st.fixed_dictionaries({"GPS": _CLOCK, "BeiDou": _CLOCK}),
        "snr_los": st.builds(SnrModel, _floats(25.0, 55.0), _floats(0.0, 5.0)),
        "snr_nlos": st.builds(SnrModel, _floats(25.0, 55.0), _floats(0.0, 5.0)),
        "n_satellites": st.integers(4, 30),
        "n_high_satellites": st.integers(0, 10),
        # the default canyon's 700 m leg fits its 90° corner blends from 0.13
        "max_accel": _floats(0.2, 5.0),
        "seed": st.integers(0, 2**32 - 1),
    },
)
# only scenarios with a GNSS epoch (both presets run at least 60 s);
# test_invalid_configs_rejected covers the rest
CONFIG_CHANGES = st.builds(
    lambda changes, rates: {**changes, **rates}, _FIELD_CHANGES, st.one_of(st.just({}), _RATES)
).filter(lambda c: round(c.get("duration_s", 60.0) * c.get("gnss_rate_hz", 1.0)) >= 1)


def numeric_leaves(value, path=()) -> list:
    """The paths (keys and indices) to the numbers of a JSON value."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, item in items for leaf in numeric_leaves(item, (*path, key))]
    return [path]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = simulate(small_canyon(seed=5, duration=15.0))
        write_dataset(ds, tmp_path)
        back = read_dataset(tmp_path)
        assert back.n_epochs == ds.n_epochs
        assert np.allclose(back.truth_pos, ds.truth_pos, atol=1e-4)
        assert np.allclose(back.imu_accel, ds.imu_accel, atol=1e-9)
        for e1, e2 in zip(ds.epochs, back.epochs):
            assert len(e1.sats) == len(e2.sats)
            for s1, s2 in zip(e1.sats, e2.sats):
                assert s1.sat_id == s2.sat_id
                assert s1.constellation == s2.constellation
                assert s2.pseudorange == pytest.approx(s1.pseudorange, abs=1e-3)
                assert s2.nlos_truth == s1.nlos_truth
            assert np.allclose(e1.accel_body_mean, e2.accel_body_mean, atol=1e-9)

    @pytest.mark.parametrize("duration, gnss_rate", [(10.3, 1.0), (10.6, 1.0), (2.5, 2.0)])
    def test_any_duration_reads_back(self, tmp_path, duration, gnss_rate):
        # round(duration * rate) epochs and whole epochs of IMU samples: at
        # 10.3 s the rows did not end on an epoch, at 10.6 s they did not
        # split evenly into the 11 epochs
        cfg = replace(noise_free_config(duration_s=duration), gnss_rate_hz=gnss_rate)
        ds = simulate(cfg)
        n = round(duration * gnss_rate)
        assert ds.n_epochs == n
        assert len(ds.imu_accel) == n * round(cfg.imu_rate_hz / gnss_rate)
        write_dataset(ds, tmp_path)
        back = read_dataset(tmp_path)
        assert back.n_epochs == n
        for e1, e2 in zip(ds.epochs, back.epochs):
            assert e2.t == pytest.approx(e1.t, abs=1e-9)
            assert np.allclose(e1.accel_body_mean, e2.accel_body_mean, atol=1e-9)

    def test_gnss_rows_counted(self, tmp_path):
        ds = simulate(small_canyon(seed=5, duration=15.0))
        write_dataset(ds, tmp_path)
        n_rows = sum(1 for _ in open(tmp_path / "gnss.csv")) - 1
        assert n_rows == sum(len(e.sats) for e in ds.epochs)

    def test_config_round_trip(self):
        cfg = default_canyon_config(seed=44)
        back = config_from_dict(config_to_dict(cfg))
        assert back.duration_s == cfg.duration_s
        assert back.seed == cfg.seed
        assert len(back.waypoints) == len(cfg.waypoints)
        assert back.nlos_model["GPS"].components == cfg.nlos_model["GPS"].components
        assert back.canyon_sectors == cfg.canyon_sectors
        assert back.deep_intervals == cfg.deep_intervals
        ds1, ds2 = simulate(cfg), simulate(back)
        assert np.allclose(ds1.truth_pos, ds2.truth_pos, atol=1e-9)
        for e1, e2 in zip(ds1.epochs, ds2.epochs):
            assert [(s.sat_id, s.nlos_truth) for s in e1.sats] == [
                (s.sat_id, s.nlos_truth) for s in e2.sats
            ]
            for s1, s2 in zip(e1.sats, e2.sats):
                assert abs(s1.pseudorange - s2.pseudorange) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(preset=st.sampled_from([default_canyon_config, noise_free_config]), changes=CONFIG_CHANGES)
    def test_config_dict_round_trip_is_exact(self, preset, changes):
        cfg = replace(preset(), **changes)
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert list(data) == [f.name for f in fields(SimConfig)]
        assert_same_config(config_from_dict(data), cfg)

    @settings(max_examples=80, deadline=None)
    @given(
        preset=st.sampled_from([default_canyon_config, noise_free_config]),
        changes=CONFIG_CHANGES,
        bad=st.sampled_from([math.nan, math.inf, -math.inf, True, "1", None, {}, []]),
        data=st.data(),
    )
    def test_a_bad_number_is_rejected_naming_its_key(self, preset, changes, bad, data):
        # once a NaN in most keys failed deep inside simulate or was taken,
        # and an object inside a nested value ended in a TypeError
        scenario = json.loads(json.dumps(config_to_dict(replace(preset(), **changes))))
        path = data.draw(st.sampled_from(numeric_leaves(scenario)))
        *parents, leaf = path
        node = scenario
        for step in parents:
            node = node[step]
        node[leaf] = bad
        with pytest.raises(ValueError, match=path[0]):
            config_from_dict(scenario)

    def test_waypoints_alone_take_simconfig_defaults(self):
        data = {"waypoints": config_to_dict(noise_free_config())["waypoints"]}
        cfg = config_from_dict(data)
        assert_same_config(cfg, SimConfig(waypoints=cfg.waypoints))

    def test_unknown_or_missing_keys_rejected(self):
        data = config_to_dict(noise_free_config())
        with pytest.raises(ValueError, match="nlos_recieve_prob"):
            config_from_dict({**data, "nlos_recieve_prob": 0.5})
        del data["waypoints"]
        with pytest.raises(ValueError, match="waypoints"):
            config_from_dict(data)

    def test_truth_times_must_step_evenly(self, tmp_path):
        write_dataset(simulate(small_canyon(seed=5, duration=5.0)), tmp_path)
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
        lines[4] = "5" + lines[4][1:]  # times 0, 1, 2, 5, 4
        (tmp_path / "truth.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="truth.csv"):
            read_dataset(tmp_path)
        out = str(tmp_path / "run")
        assert main(["run", "--dataset", str(tmp_path), "--estimator", "ekf-tc", "--out", out]) == 1

    @pytest.mark.parametrize("dropped", [2, 5])
    def test_imu_rows_must_split_into_the_epochs(self, tmp_path, dropped):
        # 5 epochs of 100 rows each: 498 rows give no whole share per epoch,
        # and 495 give 99 per epoch, whose shares end off the epochs' times
        write_dataset(simulate(small_canyon(seed=5, duration=5.0)), tmp_path)
        lines = (tmp_path / "imu.csv").read_text().splitlines()
        assert len(lines) == 1 + 500
        (tmp_path / "imu.csv").write_text("\n".join(lines[:-dropped]) + "\n")
        with pytest.raises(ValueError, match="imu.csv"):
            read_dataset(tmp_path)

    def test_nan_imu_sample_rejected_on_read(self, tmp_path):
        write_dataset(simulate(small_canyon(seed=5, duration=5.0)), tmp_path)
        lines = (tmp_path / "imu.csv").read_text().splitlines()
        # row 150 is sample 149, which epoch 2 averages
        row = lines[150].split(",")
        row[lines[0].split(",").index("fy")] = "nan"
        lines[150] = ",".join(row)
        (tmp_path / "imu.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="t=2.0: specific force"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize(
        "name, column, cell",
        [
            ("truth.csv", "x", "nan"),
            ("imu.csv", "pitch", "inf"),
            ("imu.csv", "t", "abc"),
            ("gnss.csv", "pseudorange_m", "nan"),
            ("gnss.csv", "sat_y", "-inf"),
        ],
    )
    def test_cell_that_is_not_a_finite_number_rejected_on_read(self, tmp_path, name, column, cell):
        # a sample's pitch that no epoch takes, every truth value and every
        # gnss.csv number, before its satellite is built, is checked by its
        # column (tests/test_cli.py runs text cells end to end)
        write_dataset(simulate(small_canyon(seed=5, duration=5.0)), tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(row)
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{name}: column '{column}'"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize(
        "name, columns, column",
        [
            pytest.param(name, columns, column, id=f"{name}-{column}")
            for name, columns in (
                ("truth.csv", TRUTH_COLUMNS),
                ("imu.csv", IMU_COLUMNS),
                ("gnss.csv", GNSS_COLUMNS),
            )
            for column in columns
        ],
    )
    def test_every_column_is_written_and_required(self, tmp_path, name, columns, column):
        write_dataset(simulate(small_canyon(seed=5, duration=5.0)), tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        header = lines[0].split(",")
        if name == "truth.csv":
            columns = (*columns[:7], "clk_BeiDou", "clk_GPS", *columns[7:])
        assert tuple(header) == columns
        i = header.index(column)
        rows = [line.split(",") for line in lines]
        dropped = [",".join(cells[:i] + cells[i + 1:]) for cells in rows]
        (tmp_path / name).write_text("\n".join(dropped) + "\n")
        with pytest.raises(ValueError, match=f"{name}: no column '{column}'"):
            read_dataset(tmp_path)

    def test_gnss_row_must_match_an_epoch(self, tmp_path):
        write_dataset(simulate(small_canyon(seed=5, duration=5.0)), tmp_path)
        with open(tmp_path / "gnss.csv") as fh:
            header, first = fh.readline(), fh.readline()
        assert first.startswith("0,")
        with open(tmp_path / "gnss.csv", "a") as fh:
            fh.write("2.5" + first[1:])
        with pytest.raises(ValueError, match="2.5"):
            read_dataset(tmp_path)
        out = str(tmp_path / "run")
        assert main(["run", "--dataset", str(tmp_path), "--estimator", "ekf-tc", "--out", out]) == 1

    def test_a_file_read_through_the_text_table_reads_the_same(self, tmp_path):
        # CRLF line ends make each file other than plain, so that it is read
        # through the text table; its numbers and text come out bit for bit
        ds = simulate(small_canyon(seed=5, duration=5.0))
        write_dataset(ds, tmp_path / "plain")
        write_dataset(ds, tmp_path / "crlf")
        for name in ("truth.csv", "imu.csv", "gnss.csv"):
            path = tmp_path / "crlf" / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        plain, crlf = read_dataset(tmp_path / "plain"), read_dataset(tmp_path / "crlf")
        for name in ("truth_t", "truth_pos", "truth_vel", "truth_attitude", "imu_t", "imu_accel", "imu_attitude"):
            assert np.array_equal(getattr(plain, name), getattr(crlf, name)), name
        assert plain.truth_clocks.keys() == crlf.truth_clocks.keys()
        assert all(np.array_equal(plain.truth_clocks[n], crlf.truth_clocks[n]) for n in plain.truth_clocks)
        for e1, e2 in zip(plain.epochs, crlf.epochs, strict=True):
            assert np.array_equal(e1.accel_body_mean, e2.accel_body_mean)
            assert [
                (s.sat_id, s.constellation, s.sat_pos.tolist(), s.pseudorange, s.snr, s.nlos_truth)
                for s in e1.sats
            ] == [
                (s.sat_id, s.constellation, s.sat_pos.tolist(), s.pseudorange, s.snr, s.nlos_truth)
                for s in e2.sats
            ]


def traced(make):
    """``make()``, the memory (MB) its result holds and the peak (MB) above
    that while it ran, as tracemalloc traces them, after one untraced call
    that leaves any first-call cache behind."""
    make()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, (current - before) / 1e6, (peak - current) / 1e6


class TestMemory:
    """Building a dataset holds no temporary as long as its IMU stream."""

    def test_simulate_transient_does_not_grow_with_the_imu_rate(self):
        # once about five stream-long temporaries: 0.72 MB at 100 Hz, 3.63 MB at 400 Hz
        cfg = replace(default_canyon_config(), duration_s=60.0)
        _, _, slow = traced(lambda: simulate(cfg))
        _, kept, fast = traced(lambda: simulate(replace(cfg, imu_rate_hz=400.0)))
        assert kept > 1.0  # the stream itself, kept, is far larger than the bound
        assert fast - slow < 0.25 and fast < 1.0

    def test_read_dataset_holds_no_parsed_table(self, tmp_path):
        # once a text table of each file, 29 MB traced here
        cfg = replace(default_canyon_config(), duration_s=60.0, imu_rate_hz=400.0)
        write_dataset(simulate(cfg), tmp_path)
        ds, kept, transient = traced(lambda: read_dataset(tmp_path))
        assert ds.imu_t.size > 10 * CSV_BLOCK
        assert kept > 1.0 and transient < 1.0
        # and no array it keeps is a view that pins a parsed table
        arrays = [getattr(ds, f.name) for f in fields(ds) if isinstance(getattr(ds, f.name), np.ndarray)]
        assert len(arrays) == 7
        assert all(a.base is None for a in [*arrays, *ds.truth_clocks.values()])
        assert all(s.sat_pos.base is None for e in ds.epochs for s in e.sats)
        assert all(e.accel_body_mean.base.shape == (ds.n_epochs, 3) for e in ds.epochs)


def assert_same_config(got, want):
    """Field-by-field equality; waypoint angles pass through degrees, so they
    may move by an ulp or two."""
    for f in fields(SimConfig):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "waypoints":
            assert len(a) == len(b)
            for wa, wb in zip(a, b):
                assert wa.speed == wb.speed and wa.geo.height == wb.geo.height
                assert math.isclose(wa.geo.lat, wb.geo.lat, rel_tol=1e-15, abs_tol=1e-300)
                assert math.isclose(wa.geo.lon, wb.geo.lon, rel_tol=1e-15, abs_tol=1e-300)
        elif f.name == "accel_bias_true":
            assert np.array_equal(a, b)
        else:
            assert a == b, f.name


def test_default_canyon_properties():
    ds = simulate(default_canyon_config())
    assert ds.n_epochs == 300
    assert ds.nlos_fraction() >= 0.25
    counts = [len(e.sats) for e in ds.epochs]
    assert min(counts) >= 4


def test_mask_sector_wraparound():
    sector = MaskSector(330.0, 30.0, 55.0)
    assert sector.contains(350.0)
    assert sector.contains(10.0)
    assert not sector.contains(180.0)


def test_invalid_configs_rejected():
    ref = Geodetic.from_degrees(22.3, 114.2, 5.0)
    wps = [Waypoint(ref, 5.0)]
    with pytest.raises(ValueError):
        SimConfig(waypoints=wps)
    with pytest.raises(ValueError):
        SimConfig(
            waypoints=[Waypoint(ref, 5.0), Waypoint(Geodetic.from_degrees(22.4, 114.2), 5.0)],
            duration_s=-1.0,
        )
    with pytest.raises(ValueError):
        SimConfig(
            waypoints=[Waypoint(ref, 5.0), Waypoint(Geodetic.from_degrees(22.4, 114.2), 5.0)],
            canyon_sectors=[MaskSector(0, 90, 95.0)],
        )
    # each out-of-range scenario value is named: none is simulated silently
    # (a noise-free IMU, every masked satellite received, no tracks) or fails
    # deep inside the simulator
    base = noise_free_config(duration_s=10.0)
    for name, value in [
        ("seed", -1),
        ("los_sigma_m", -0.5),
        ("max_accel", 0.0),
        ("max_accel", -1.5),
        ("accel_noise_sigma", -0.1),
        ("attitude_noise_deg", -0.1),
        ("nlos_depth_deg", -1.0),
        ("nlos_receive_prob", 1.5),
        ("nlos_receive_prob", -0.1),
        ("nlos_receive_prob", float("nan")),
        ("n_satellites", -1),
        ("n_high_satellites", -1),
        # no GNSS epoch at 1 Hz: simulate rounds both to 0 epochs
        ("duration_s", 0.4),
        ("duration_s", 0.5),
        # a sector whose ends are equal modulo 360 masked one azimuth, and an
        # interval that does not end after it starts blocked nothing
        ("canyon_sectors", [MaskSector(0.0, 360.0, 62.0)]),
        ("canyon_sectors", [MaskSector(-10.0, 350.0, 62.0)]),
        ("canyon_sectors", [MaskSector(25.0, 155.0, 62.0), MaskSector(40.0, 40.0, 62.0)]),
        ("canyon_sectors", [MaskSector(float("nan"), 30.0, 62.0)]),
        ("deep_intervals", [DeepInterval(50.0, 50.0, 60.0)]),
        ("deep_intervals", [DeepInterval(60.0, 40.0, 60.0)]),
        ("deep_intervals", [DeepInterval(40.0, 60.0, float("nan"))]),
        # every number is finite, an integer where the field is an int: each
        # of these was taken, or failed deep inside the simulator
        ("open_sky_min_elevation_deg", float("nan")),
        ("open_sky_min_elevation_deg", -1.0),
        ("open_sky_min_elevation_deg", 90.0),
        ("waypoints", [base.waypoints[0], replace(base.waypoints[1], speed=float("nan"))]),
        ("waypoints", [base.waypoints[0], replace(base.waypoints[1], speed=0.0)]),
        ("snr_los", SnrModel(float("nan"), 2.0)),
        ("clock_models", {**base.clock_models, "GPS": ClockModel(math.inf, 0.0)}),
        ("nlos_model", {**base.nlos_model, "GPS": GmmModel((GmmComponent(1.0, math.nan, 1.0),))}),
        ("deep_intervals", [DeepInterval(40.0, 60.0, math.inf)]),
        ("max_accel", math.inf),
        ("n_satellites", 14.0),
        ("n_high_satellites", 5.0),
        ("seed", 1.0),
        ("seed", True),
    ]:
        with pytest.raises(ValueError, match=name):
            replace(base, **{name: value})
    for name in ("snr_los", "snr_nlos"):
        with pytest.raises(ValueError, match=f"{name}.sigma"):
            replace(base, **{name: SnrModel(40.0, -1.0)})
    # a model for each simulated constellation, and no other; once a KeyError
    # inside simulate, or a clk_Galileo column written silently, and a bad
    # mixture failed inside numpy
    gps, beidou = base.clock_models["GPS"], base.nlos_model["BeiDou"]
    for name, models in [
        ("clock_models", {"GPS": gps}),
        ("clock_models", {**base.clock_models, "Galileo": gps}),
        ("nlos_model", {"GPS": beidou}),
        *(
            ("nlos_model", {"GPS": GmmModel(components), "BeiDou": beidou})
            for components in [
                (),
                (GmmComponent(-0.5, 1.0, 1.0), GmmComponent(1.0, 5.0, 2.0)),
                (GmmComponent(0.0, 1.0, 1.0),),
                (GmmComponent(1.0, 1.0, -1.0),),
            ]
        ),
    ]:
        with pytest.raises(ValueError, match=name):
            replace(base, **{name: models})


@pytest.mark.parametrize(
    "imu_rate, gnss_rate, accepted",
    [
        (100.0, 1.0, True),
        (10.0, 10.0, True),
        (3.0, 0.3, True),
        (100.0, 100.0 / 3.0, True),
        (1.0, 2.0, False),
        (100.0, 3.0, False),
        (100.0, 1.0 + 1e-6, False),
    ],
)
def test_imu_rate_must_be_a_whole_multiple_of_the_gnss_rate(imu_rate, gnss_rate, accepted):
    # each epoch averages the IMU samples since the last one: at 1 Hz IMU and
    # 2 Hz GNSS an epoch has none, at 100 and 3 Hz it averaged 33 of them
    # and the sample windows drifted from the epochs
    base = replace(noise_free_config(duration_s=10.0), accel_noise_sigma=0.1)
    if not accepted:
        with pytest.raises(ValueError, match="imu_rate_hz / gnss_rate_hz"):
            replace(base, imu_rate_hz=imu_rate, gnss_rate_hz=gnss_rate)
        return
    ds = simulate(replace(base, imu_rate_hz=imu_rate, gnss_rate_hz=gnss_rate))
    steps = round(imu_rate / gnss_rate)
    for k, epoch in enumerate(ds.epochs[1:], start=1):
        # the samples since the last epoch, the newest taken at this epoch
        hi = k * steps
        assert hi <= len(ds.imu_accel)
        assert hi / imu_rate == pytest.approx(epoch.t, abs=1e-9)
        assert np.array_equal(epoch.accel_body_mean, ds.imu_accel[hi - steps : hi].mean(axis=0))
        assert np.isfinite(epoch.accel_body_mean).all()
