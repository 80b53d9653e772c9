import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins.frames import (
    WGS84_A,
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
    # independent oracle: explicit numeric product Rz @ Ry @ Rx
    a, b, g = math.radians(30), math.radians(20), math.radians(10)
    rz = np.array(
        [[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]]
    )
    ry = np.array(
        [[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]]
    )
    rx = np.array(
        [[1, 0, 0], [0, math.cos(g), -math.sin(g)], [0, math.sin(g), math.cos(g)]]
    )
    r = rotation_local_from_body(EulerAngles(a, b, g))
    assert np.allclose(r, rz @ ry @ rx, atol=1e-15)
    assert_rotation(r)


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


def test_body_accel_bias_cancellation():
    raw = np.array([0.2, -0.1, 9.8])
    out = body_accel_to_ecef(raw, raw, EulerAngles(0.3, 0.1, -0.2), Geodetic(0.5, 1.0))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_body_accel_identity_attitude_at_origin():
    out = body_accel_to_ecef(
        np.array([1.0, 0.0, 0.0]), np.zeros(3), EulerAngles(0, 0, 0), Geodetic(0.0, 0.0)
    )
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_body_accel_matches_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        att = EulerAngles(*rng.uniform(-math.pi, math.pi, size=3))
        geo = Geodetic(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
        raw = rng.normal(size=3)
        bias = rng.normal(scale=0.1, size=3)
        expected = (
            rotation_global_from_local(geo) @ rotation_local_from_body(att) @ (raw - bias)
        )
        assert np.allclose(body_accel_to_ecef(raw, bias, att, geo), expected, atol=1e-12)


def test_body_accel_linear_in_input():
    att = EulerAngles(0.4, -0.2, 0.1)
    geo = Geodetic(0.39, 1.99)
    v = np.array([0.3, -1.2, 0.7])
    one = body_accel_to_ecef(v, np.zeros(3), att, geo)
    scaled = body_accel_to_ecef(3.5 * v, np.zeros(3), att, geo)
    assert np.allclose(scaled, 3.5 * one, atol=1e-12)


def test_geodetic_validates_ranges():
    with pytest.raises(ValueError):
        Geodetic(2.0, 0.0)
    with pytest.raises(ValueError):
        Geodetic(0.0, 4.0)
