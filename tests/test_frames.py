import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins.frames import (
    MIN_RADIUS_M,
    WGS84_A,
    WGS84_E2,
    EulerAngles,
    Geodetic,
    body_accel_to_ecef,
    ecef_to_geodetic,
    ecef_to_geodetic_array,
    enu_to_ecef,
    geodetic_to_ecef,
    global_to_local_array,
    rotation_global_from_local,
    rotation_local_from_body,
)


def ecef_to_enu(ref: Geodetic, p: np.ndarray) -> np.ndarray:
    """Express ECEF point ``p`` in the ENU frame anchored at ``ref`` (the
    inverse that ``enu_to_ecef`` is checked against)."""
    delta = np.asarray(p, dtype=float) - geodetic_to_ecef(ref)
    return rotation_global_from_local(ref).T @ delta


def fixed_point_geodetic(p: np.ndarray) -> Geodetic:
    """ECEF to geodetic by the fixed-point latitude iteration, with the cosine
    height below 45 degrees of latitude and the sine height above (the oracle
    the closed form is checked against)."""
    x, y, z = np.asarray(p, dtype=float)
    r = math.hypot(x, y)
    lon = math.atan2(y, x)

    def prime_vertical_and_height(lat):
        sphi = math.sin(lat)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sphi * sphi)
        if abs(lat) < math.pi / 4:
            return n, r / math.cos(lat) - n
        return n, z / sphi - n * (1.0 - WGS84_E2)

    lat = math.atan2(z, r * (1.0 - WGS84_E2))
    for _ in range(10):
        n, height = prime_vertical_and_height(lat)
        new_lat = math.atan2(z, r * (1.0 - WGS84_E2 * n / (n + height)))
        if abs(new_lat - lat) < 1e-12:
            lat = new_lat
            break
        lat = new_lat
    _, height = prime_vertical_and_height(lat)
    return Geodetic(min(max(lat, -math.pi / 2), math.pi / 2), lon, height)


def axis_product(att: EulerAngles) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) as three matrices and two products (the
    oracle the closed-form body rotation is checked against)."""
    ca, sa = math.cos(att.yaw), math.sin(att.yaw)
    cb, sb = math.cos(att.pitch), math.sin(att.pitch)
    cg, sg = math.cos(att.roll), math.sin(att.roll)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


ANGLES = st.floats(-math.pi, math.pi)


def assert_rotation(r):
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_body_rotation_identity():
    r = rotation_local_from_body(EulerAngles(0.0, 0.0, 0.0))
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_body_rotation_pure_yaw():
    r = rotation_local_from_body(EulerAngles(math.pi / 2, 0.0, 0.0))
    assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_body_rotation_matches_axis_product():
    a, b, g = math.radians(30), math.radians(20), math.radians(10)
    r = rotation_local_from_body(EulerAngles(a, b, g))
    assert np.abs(r - axis_product(EulerAngles(a, b, g))).max() <= 1e-15
    assert_rotation(r)


@settings(max_examples=200, deadline=None)
@given(yaw=ANGLES, pitch=ANGLES, roll=ANGLES)
def test_closed_form_body_rotation_is_the_axis_product(yaw, pitch, roll):
    att = EulerAngles(yaw, pitch, roll)
    assert np.abs(rotation_local_from_body(att) - axis_product(att)).max() <= 1e-15


def test_local_rotation_at_origin():
    r = rotation_global_from_local(Geodetic(0.0, 0.0))
    assert np.allclose(r, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-15)


def test_local_rotation_at_pole():
    r = rotation_global_from_local(Geodetic(math.pi / 2, 0.0))
    assert np.allclose(r[2], [0, 0, 1], atol=1e-15)


def test_local_rotation_elementwise():
    geo = Geodetic.from_degrees(22.3, 114.2)
    r = rotation_global_from_local(geo)
    sphi, cphi = math.sin(geo.lat), math.cos(geo.lat)
    slam, clam = math.sin(geo.lon), math.cos(geo.lon)
    expected = np.array(
        [
            [-slam, -sphi * clam, cphi * clam],
            [clam, -sphi * slam, cphi * slam],
            [0.0, cphi, sphi],
        ]
    )
    assert np.allclose(r, expected, atol=1e-15)
    assert_rotation(r)


def test_rotations_orthonormal_over_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        geo = Geodetic(rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(-math.pi, math.pi))
        assert_rotation(rotation_global_from_local(geo))
        att = EulerAngles(*rng.uniform(-math.pi, math.pi, size=3))
        assert_rotation(rotation_local_from_body(att))


def test_geodetic_to_ecef_equator():
    p = geodetic_to_ecef(Geodetic(0.0, 0.0, 0.0))
    assert np.allclose(p, [WGS84_A, 0.0, 0.0], atol=1e-9)
    q = geodetic_to_ecef(Geodetic(0.0, math.pi / 2, 0.0))
    assert np.allclose(q, [0.0, WGS84_A, 0.0], atol=1e-9)


def test_geodetic_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(500):
        geo = Geodetic(
            rng.uniform(-math.pi / 2 * 0.999, math.pi / 2 * 0.999),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-500.0, 9000.0),
        )
        p = geodetic_to_ecef(geo)
        back = ecef_to_geodetic(p)
        assert np.linalg.norm(geodetic_to_ecef(back) - p) < 1e-6


def test_ecef_to_geodetic_rejects_origin():
    with pytest.raises(ValueError):
        ecef_to_geodetic(np.zeros(3))


near_surface = st.tuples(
    st.floats(-math.pi / 2, math.pi / 2),
    st.floats(-math.pi, math.pi, exclude_min=True),
    st.floats(-500.0, 20_000.0),
)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(near_surface, min_size=1, max_size=16), seed=st.integers(0, 2**32 - 1))
def test_array_geodetic_and_local_rotation_match_scalar(points, seed):
    """Elementwise forms against the scalar conversion and rotation matrix."""
    p = np.array([geodetic_to_ecef(Geodetic(*pt)) for pt in points])
    lat, lon, height = ecef_to_geodetic_array(p)
    v = np.random.default_rng(seed).normal(scale=10.0, size=p.shape)
    local = global_to_local_array(lat, lon, v)
    for i, row in enumerate(p):
        geo = ecef_to_geodetic(row)
        assert abs(lat[i] - geo.lat) <= 1e-12
        assert abs(lon[i] - geo.lon) <= 1e-12
        assert abs(height[i] - geo.height) <= 1e-6
        expected = rotation_global_from_local(geo).T @ v[i]
        assert np.abs(local[i] - expected).max() <= 1e-12 * (1.0 + np.abs(v[i]).max())


def test_array_geodetic_rejects_origin():
    with pytest.raises(ValueError):
        ecef_to_geodetic_array(np.array([[WGS84_A, 0.0, 0.0], [0.0, 0.0, 0.0]]))


any_height = st.tuples(
    st.one_of(st.sampled_from([-math.pi / 2, 0.0, math.pi / 2]), st.floats(-math.pi / 2, math.pi / 2)),
    st.floats(-math.pi, math.pi, exclude_min=True),
    st.floats(-1_000.0, 1_000_000.0),
)


@settings(max_examples=500, deadline=None)
@given(point=any_height)
def test_closed_form_matches_fixed_point_oracle(point):
    """Poles and equator included, from 1 km below the ellipsoid to 1,000 km above."""
    p = geodetic_to_ecef(Geodetic(*point))
    geo = ecef_to_geodetic(p)
    oracle = fixed_point_geodetic(p)
    assert abs(geo.lat - oracle.lat) <= 1e-14
    assert abs(geo.height - oracle.height) <= 1e-7
    assert np.linalg.norm(geodetic_to_ecef(geo) - p) <= 1e-8


@pytest.mark.parametrize(
    "p", [[MIN_RADIUS_M * 0.999, 0.0, 0.0], [0.0, 0.0, -50e3], [3e4, -2e4, 1e4], [1e-3, 0.0, 0.0]]
)
def test_points_near_the_centre_rejected_in_both_forms(p):
    with pytest.raises(ValueError):
        ecef_to_geodetic(np.array(p))
    with pytest.raises(ValueError):
        ecef_to_geodetic_array(np.array([[WGS84_A, 0.0, 0.0], p]))


@pytest.mark.parametrize("y", [-0.0, 0.0, -1e-300])
def test_antimeridian_longitude_is_pi_in_both_forms(y):
    """atan2 gives -pi for y = -0.0 and for a y too small to move it; the
    longitude range (-pi, pi] takes the antimeridian as pi."""
    p = np.array([-WGS84_A, y, 0.0])
    geo = ecef_to_geodetic(p)
    lat, lon, height = ecef_to_geodetic_array(p[None])
    assert geo.lon == lon[0] == math.pi
    assert (lat[0], height[0]) == pytest.approx((geo.lat, geo.height), abs=1e-9)
    assert np.linalg.norm(geodetic_to_ecef(geo) - p) <= 1e-8


def test_guard_admits_points_just_outside_it():
    p = np.array([0.0, MIN_RADIUS_M * 1.001, 0.0])
    geo = ecef_to_geodetic(p)
    assert np.linalg.norm(geodetic_to_ecef(geo) - p) <= 1e-8
    lat, lon, height = ecef_to_geodetic_array(p[None])
    assert (lat[0], lon[0], height[0]) == pytest.approx((geo.lat, geo.lon, geo.height), abs=1e-9)


def test_enu_self_reference_is_zero():
    ref = Geodetic.from_degrees(22.3, 114.2, 40.0)
    enu = ecef_to_enu(ref, geodetic_to_ecef(ref))
    assert np.allclose(enu, 0.0, atol=1e-9)


def test_enu_up_displacement():
    ref = Geodetic(0.0, 0.0, 0.0)
    up = rotation_global_from_local(ref)[:, 2]
    enu = ecef_to_enu(ref, geodetic_to_ecef(ref) + up)
    assert np.allclose(enu, [0.0, 0.0, 1.0], atol=1e-9)


def test_enu_preserves_norm():
    rng = np.random.default_rng(3)
    ref = Geodetic.from_degrees(22.3, 114.2, 5.0)
    ref_ecef = geodetic_to_ecef(ref)
    for _ in range(50):
        p = ref_ecef + rng.normal(0, 1000, size=3)
        enu = ecef_to_enu(ref, p)
        assert abs(np.linalg.norm(enu) - np.linalg.norm(p - ref_ecef)) < 1e-9


def test_enu_round_trip():
    ref = Geodetic.from_degrees(-33.9, 151.2, 20.0)
    enu = np.array([120.0, -45.0, 6.0])
    assert np.allclose(ecef_to_enu(ref, enu_to_ecef(ref, enu)), enu, atol=1e-9)


def test_body_accel_identity_attitude_at_origin():
    out = body_accel_to_ecef(
        np.array([1.0, 0.0, 0.0]), EulerAngles(0, 0, 0), Geodetic(0.0, 0.0)
    )
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_body_accel_matches_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        att = EulerAngles(*rng.uniform(-math.pi, math.pi, size=3))
        geo = Geodetic(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
        raw = rng.normal(size=3)
        expected = rotation_global_from_local(geo) @ axis_product(att) @ raw
        assert np.allclose(body_accel_to_ecef(raw, att, geo), expected, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    yaw=ANGLES,
    pitch=ANGLES,
    roll=ANGLES,
    lat=st.floats(-math.pi / 2, math.pi / 2),
    lon=st.floats(-math.pi, math.pi, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_body_accel_is_the_two_matrix_product(yaw, pitch, roll, lat, lon, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(scale=10.0, size=3)
    att, geo = EulerAngles(yaw, pitch, roll), Geodetic(lat, lon)
    expected = rotation_global_from_local(geo) @ (axis_product(att) @ raw)
    gap = np.abs(body_accel_to_ecef(raw, att, geo) - expected).max()
    assert gap <= 1e-15 * np.linalg.norm(raw)


def test_body_accel_linear_in_input():
    att = EulerAngles(0.4, -0.2, 0.1)
    geo = Geodetic(0.39, 1.99)
    v = np.array([0.3, -1.2, 0.7])
    one = body_accel_to_ecef(v, att, geo)
    scaled = body_accel_to_ecef(3.5 * v, att, geo)
    assert np.allclose(scaled, 3.5 * one, atol=1e-12)


def test_geodetic_validates_ranges():
    with pytest.raises(ValueError):
        Geodetic(2.0, 0.0)
    with pytest.raises(ValueError):
        Geodetic(0.0, 4.0)
