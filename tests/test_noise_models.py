import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gnssins.frames import (
    MIN_RADIUS_M,
    Geodetic,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
    rotation_global_from_local,
)
from gnssins.noise_models import (
    GeometryError,
    SatObservation,
    WeightingParams,
    compute_hdop,
    hdop_array,
    ins_cov,
    lc_fix_covariance,
    motion_model_cov,
    pseudorange_weight,
    tc_covariance,
    transition,
    transition_jacobian,
)
from gnssins.nls_solver import ResidualBlock, numeric_jacobian
from gnssins.types import Constellation, StateLayout, constellations_present

REF = Geodetic.from_degrees(22.3, 114.2, 10.0)


def make_sat(az_deg, el_deg, constellation=Constellation.GPS, sat_id="G01", snr=50.0):
    az, el = math.radians(az_deg), math.radians(el_deg)
    rng = 2.2e7
    enu = rng * np.array(
        [math.sin(az) * math.cos(el), math.cos(az) * math.cos(el), math.sin(el)]
    )
    return SatObservation(
        sat_id=sat_id,
        constellation=constellation,
        sat_pos=enu_to_ecef(REF, enu),
        pseudorange=rng,
        snr=snr,
        elevation=el,
        azimuth=az,
    )


class TestLcFixCovariance:
    def test_paper_value(self):
        assert np.allclose(lc_fix_covariance(1.0, 10.0), [100.0, 100.0, 100.0])

    def test_substitution(self):
        assert np.allclose(lc_fix_covariance(2.0, 10.0), [400.0, 400.0, 400.0])

    def test_unit_case(self):
        assert np.allclose(lc_fix_covariance(1.0, 1.0), [1.0, 1.0, 1.0])

    def test_quadratic_scaling(self):
        base = lc_fix_covariance(1.3, 10.0)
        assert np.allclose(lc_fix_covariance(2.6, 10.0), 4.0 * base)

    def test_rejects_nonpositive_hdop(self):
        with pytest.raises(ValueError):
            lc_fix_covariance(0.0, 10.0)


class TestHdop:
    def test_coincident_satellites_singular(self):
        receiver = geodetic_to_ecef(REF)
        sats = [make_sat(30.0, 45.0, sat_id=f"G0{i}") for i in range(4)]
        with pytest.raises(GeometryError):
            compute_hdop(sats, receiver)

    def test_symmetric_geometry_matches_bruteforce(self):
        receiver = geodetic_to_ecef(REF)
        sats = [make_sat(0.0, 90.0, sat_id="G00")] + [
            make_sat(az, 45.0, sat_id=f"G0{i+1}") for i, az in enumerate([0, 90, 180, 270])
        ]
        # brute-force oracle: assemble G directly from az/el and invert
        rows = []
        for s in sats:
            az, el = s.azimuth, s.elevation
            rows.append(
                [
                    math.sin(az) * math.cos(el),
                    math.cos(az) * math.cos(el),
                    math.sin(el),
                    1.0,
                ]
            )
        inv = np.linalg.inv(np.array(rows).T @ np.array(rows))
        expected = math.sqrt(inv[0, 0] + inv[1, 1])
        assert compute_hdop(sats, receiver) == pytest.approx(expected, rel=1e-6)

    def test_adding_satellite_never_increases_hdop(self):
        rng = np.random.default_rng(17)
        receiver = geodetic_to_ecef(REF)
        for _ in range(20):
            sats = [
                make_sat(rng.uniform(0, 360), rng.uniform(10, 80), sat_id=f"G{i:02d}")
                for i in range(6)
            ]
            base = compute_hdop(sats, receiver)
            extra = make_sat(rng.uniform(0, 360), rng.uniform(10, 80), sat_id="G99")
            assert compute_hdop(sats + [extra], receiver) <= base + 1e-12

    def test_requires_four_satellites(self):
        receiver = geodetic_to_ecef(REF)
        with pytest.raises(GeometryError):
            compute_hdop([make_sat(10, 50)] * 3, receiver)

    def test_two_constellations_add_clock_column(self):
        receiver = geodetic_to_ecef(REF)
        geometry = [(0, 60), (60, 40), (120, 55), (200, 35), (260, 70), (320, 25)]
        sats = [make_sat(az, el, sat_id=f"G{i}") for i, (az, el) in enumerate(geometry)]
        mixed = sats[:3] + [
            make_sat(az, el, constellation=Constellation.BEIDOU, sat_id=f"C{i}")
            for i, (az, el) in enumerate(geometry[3:])
        ]
        # same geometry but an extra clock unknown: HDOP cannot improve
        assert compute_hdop(mixed, receiver) >= compute_hdop(sats, receiver) - 1e-12


def hdop_per_satellite(sats, receiver):
    """The former per-satellite assembly of the HDOP geometry matrix.

    Returns the HDOP and the condition number of G^T G.
    """
    if len(sats) < 4:
        raise GeometryError(f"need at least 4 satellites, got {len(sats)}")
    enu_rot = rotation_global_from_local(ecef_to_geodetic(receiver)).T
    consts = constellations_present(sats)
    g = np.zeros((len(sats), 3 + len(consts)))
    for i, sat in enumerate(sats):
        los = sat.sat_pos - receiver
        rng = np.linalg.norm(los)
        if rng == 0.0:
            raise GeometryError(f"satellite {sat.sat_id} coincides with receiver")
        g[i, :3] = enu_rot @ (los / rng)
        g[i, 3 + consts.index(sat.constellation)] = 1.0
    gtg = g.T @ g
    if np.linalg.cond(gtg) > 1e12:
        raise GeometryError("singular satellite geometry")
    cov = np.linalg.inv(gtg)
    return math.sqrt(cov[0, 0] + cov[1, 1]), np.linalg.cond(gtg)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 12),
    mixed=st.booleans(),
    coincident=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hdop_matches_per_satellite_loop(n, mixed, coincident, seed):
    rng = np.random.default_rng(seed)
    sats = [
        make_sat(
            rng.uniform(0, 360),
            rng.uniform(5, 89),
            constellation=Constellation.BEIDOU if mixed and i % 2 else Constellation.GPS,
            sat_id=f"S{i:02d}",
        )
        for i in range(n)
    ]
    receiver = geodetic_to_ecef(REF) + rng.normal(scale=50.0, size=3)
    if coincident:
        sats[-1].sat_pos = receiver.copy()
    try:
        expected, cond = hdop_per_satellite(sats, receiver)
    except GeometryError:
        with pytest.raises(GeometryError):
            compute_hdop(sats, receiver)
        return
    # the two assemblies round differently and inverting G^T G magnifies that
    # by its condition number (measured at most 0.3 * eps * cond): the bound
    # is 1e-12 up to cond 4.5e3 and eps * cond for near-degenerate geometry
    rel = max(1e-12, np.finfo(float).eps * cond)
    assert compute_hdop(sats, receiver) == pytest.approx(expected, rel=rel)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(3, 9), min_size=1, max_size=5),
    kinds=st.lists(st.sampled_from(["gps", "beidou", "mixed", "coincident"]), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_hdop_array_matches_each_epoch_alone(sizes, kinds, seed):
    """A stack of epochs padded to the widest, each with its own constellations
    (a clock column it lacks is all zero), gives each epoch's compute_hdop, or
    NaN where that raises."""
    rng = np.random.default_rng(seed)
    union = (Constellation.GPS, Constellation.BEIDOU)
    width = max(sizes)
    receivers = geodetic_to_ecef(REF) + rng.normal(scale=50.0, size=(len(sizes), 3))
    # padding rows sit at the receiver, where a real satellite makes the HDOP NaN
    sat_pos = np.repeat(receivers[:, :, None], width, axis=2)
    clocks = np.zeros((len(sizes), width, len(union)))
    epochs = []
    for k, (n, kind) in enumerate(zip(sizes, kinds)):
        sats = [
            make_sat(
                rng.uniform(0, 360),
                rng.uniform(5, 89),
                constellation=Constellation.BEIDOU if kind == "beidou" or (kind == "mixed" and i % 2) else Constellation.GPS,
                sat_id=f"S{i:02d}",
            )
            for i in range(n)
        ]
        if kind == "coincident":
            sats[-1].sat_pos = receivers[k].copy()
        for i, sat in enumerate(sats):
            sat_pos[k, :, i] = sat.sat_pos
            clocks[k, i, union.index(sat.constellation)] = 1.0
        epochs.append(sats)
    hdops = hdop_array(sat_pos, clocks, receivers)
    for sats, receiver, hdop in zip(epochs, receivers, hdops):
        try:
            want = compute_hdop(sats, receiver)
        except GeometryError:
            assert math.isnan(hdop)
            continue
        # the same sums, but a BeiDou-only epoch's clock column sits second
        # here, beside a unit diagonal, so the inverses round apart, magnified
        # by the condition number (measured at most 0.22 * eps * cond)
        _, cond = hdop_per_satellite(sats, receiver)
        assert hdop == pytest.approx(want, rel=max(1e-12, np.finfo(float).eps * cond))


@pytest.mark.parametrize("width, n_clock", [(4, 1), (8, 2)])
def test_hdop_array_of_no_epochs_is_empty(width, n_clock):
    hdops = hdop_array(np.zeros((0, 3, width)), np.zeros((0, width, n_clock)), np.zeros((0, 3)))
    assert hdops.shape == (0,)


class TestSatObservation:
    VALID = dict(
        sat_id="G01",
        constellation=Constellation.GPS,
        sat_pos=np.array([1.5e7, 1.0e7, 1.8e7]),
        pseudorange=2.2e7,
        snr=45.0,
        elevation=0.8,
        azimuth=1.2,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["sat_pos", "pseudorange", "snr", "elevation", "azimuth"]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        axis=st.integers(0, 2),
    )
    def test_non_finite_field_rejected(self, name, bad, axis):
        fields = dict(self.VALID)
        if name == "sat_pos":
            fields["sat_pos"] = fields["sat_pos"].copy()
            fields["sat_pos"][axis] = bad
        else:
            fields[name] = bad
        with pytest.raises(ValueError):
            SatObservation(**fields)

    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(0.0, MIN_RADIUS_M, exclude_max=True),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: 0.1 < np.linalg.norm(v)),
    )
    @example(radius=0.0, direction=(1.0, 0.0, 0.0))
    def test_position_inside_the_earth_rejected(self, radius, direction):
        # every WLS solve starts at the Earth's centre, where a satellite's
        # row is undefined, and no satellite orbits inside the Earth
        sat_pos = radius * np.array(direction) / np.linalg.norm(direction)
        assume(sat_pos @ sat_pos < MIN_RADIUS_M**2)
        with pytest.raises(ValueError, match="satellite G01: .* of the Earth's centre"):
            SatObservation(**dict(self.VALID, sat_pos=sat_pos))
        SatObservation(**dict(self.VALID, sat_pos=[MIN_RADIUS_M, 0.0, 0.0]))

    def test_owns_its_position(self):
        grid = np.full((2, 3), 1.5e7)
        obs = SatObservation(**dict(self.VALID, sat_pos=grid[0]))
        assert not np.shares_memory(obs.sat_pos, grid)
        grid[0] = 0.0
        assert np.all(obs.sat_pos == 1.5e7)


class TestPseudorangeWeight:
    def setup_method(self):
        self.params = WeightingParams()

    def test_zenith_strong_signal(self):
        assert pseudorange_weight(math.pi / 2, 50.0, self.params) == pytest.approx(1.0)

    def test_strong_signal_is_inverse_sin_squared(self):
        assert pseudorange_weight(math.radians(30), 50.0, self.params) == pytest.approx(4.0)

    def test_weak_signal_value(self):
        # frozen from an independent evaluation of the weighting model with
        # the negative-exponent convention and the adopted table constants
        sigma2 = pseudorange_weight(math.radians(30), 40.0, self.params)
        assert sigma2 == pytest.approx(6.892812214565803, rel=1e-12)
        assert sigma2 == pytest.approx(6.8925, rel=1e-3)

    def test_weak_signal_inflates_variance(self):
        # below the SNR threshold the bracket exceeds 1, so the variance
        # exceeds the strong-signal variance at the same elevation
        for el_deg in (15, 30, 45, 60, 85):
            el = math.radians(el_deg)
            weak = pseudorange_weight(el, 38.0, self.params)
            strong = pseudorange_weight(el, 50.0, self.params)
            assert weak > strong

    def test_variance_monotone_in_elevation(self):
        # variance shrinks toward zenith at fixed SNR
        for snr in (35.0, 41.0, 50.0):
            els = np.radians(np.linspace(5, 90, 40))
            var = [pseudorange_weight(el, snr, self.params) for el in els]
            assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(var, var[1:]))

    def test_variance_monotone_as_snr_falls(self):
        el = math.radians(40)
        var = [pseudorange_weight(el, snr, self.params) for snr in (50, 44, 40, 36, 32)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(var, var[1:]))

    def test_rejects_zero_elevation(self):
        with pytest.raises(ValueError):
            pseudorange_weight(0.0, 50.0, self.params)


class TestTcCovariance:
    def test_single_satellite(self):
        sats = [make_sat(0, 90, snr=50.0)]
        assert np.allclose(tc_covariance(sats, WeightingParams()), [1.0])

    def test_empty_list_errors(self):
        with pytest.raises(ValueError):
            tc_covariance([], WeightingParams())

    def test_permutation_equivariance(self):
        sats = [make_sat(30 * i, 20 + 7 * i, snr=38 + i, sat_id=f"G{i}") for i in range(5)]
        cov = tc_covariance(sats, WeightingParams())
        perm = [3, 1, 4, 0, 2]
        cov_perm = tc_covariance([sats[i] for i in perm], WeightingParams())
        assert np.allclose(cov_perm, cov[perm])


def test_motion_model_cov_values():
    assert np.allclose(motion_model_cov(), [0.09, 0.09, 0.09])
    assert np.allclose(motion_model_cov(), motion_model_cov())


def test_ins_cov_values():
    assert np.allclose(ins_cov(), [0.0225, 0.0225, 0.0225])


def test_weighting_params_validation():
    with pytest.raises(ValueError):
        WeightingParams(T=10.0, big_f=10.0)
    with pytest.raises(ValueError):
        WeightingParams(a=-1.0)
    with pytest.raises(ValueError):
        WeightingParams(s_user=0.0)


@pytest.mark.parametrize("name", [f.name for f in fields(WeightingParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_weighting_params_reject_non_finite(name, value):
    # a NaN s_user once failed as a NaN latitude deep in an ekf-lc run, and a
    # NaN T as an EvaluationError from the single-epoch WLS
    with pytest.raises(ValueError, match=name):
        WeightingParams(**{name: value})


LAYOUTS = (StateLayout(), StateLayout((Constellation.GPS, Constellation.BEIDOU)))


def moved(layout, seed, shape=()):
    """Random states of ``layout`` and specific forces, stacked to ``shape``."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-100.0, 100.0, shape + (layout.dim,)), rng.uniform(-10.0, 10.0, shape + (3,))


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    dt=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_transition_jacobian_is_the_models_derivative(layout, dt, seed):
    x, accel = moved(layout, seed)
    step = ResidualBlock((0,), layout.dim, lambda s: s + transition(s, accel, dt), np.eye(layout.dim))
    assert np.allclose(transition_jacobian(dt, layout.dim), numeric_jacobian(step, [x]), rtol=0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    count=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_transition_is_the_row_by_row_one(layout, count, seed):
    x, accel = moved(layout, seed, (count,))
    dt = np.random.default_rng(seed + 1).uniform(0.01, 10.0, (count, 1))
    rows = np.array([transition(*args) for args in zip(x, accel, dt[:, 0])])
    assert np.array_equal(transition(x, accel, dt), rows)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_cached_transition_jacobian_is_read_only(layout):
    # every caller shares the cached array, so a write through one must fail
    f = transition_jacobian(0.5, layout.dim)
    assert transition_jacobian(0.5, layout.dim) is f
    with pytest.raises(ValueError, match="read-only"):
        f[0, 3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        f += 1.0
    assert f[0, 3] == 0.5 and f[0, 0] == 1.0
