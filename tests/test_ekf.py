import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins.ekf import (
    BeliefState,
    default_process_noise,
    initial_covariance,
    predict,
    update_lc,
    update_tc,
)
from gnssins.noise_models import GeometryError, SatObservation
from gnssins.types import Constellation, StateLayout

LC = StateLayout()
TC = StateLayout((Constellation.GPS, Constellation.BEIDOU))


def predicted_pseudorange(state: np.ndarray, sat: SatObservation, layout: StateLayout) -> float:
    """Per-satellite oracle of the pseudorange model: range plus clock bias."""
    rng = float(np.linalg.norm(sat.sat_pos - state[0:3]))
    if rng == 0.0:
        raise GeometryError(f"satellite {sat.sat_id} coincides with receiver")
    clock = state[layout.clock_index(sat.constellation)] if layout.has_clock else 0.0
    return rng + clock


def pseudorange_jacobian_row(
    state: np.ndarray, sat: SatObservation, layout: StateLayout
) -> np.ndarray:
    """Per-satellite oracle of one row of the TC observation Jacobian."""
    row = np.zeros(layout.dim)
    los = sat.sat_pos - state[0:3]
    rng = np.linalg.norm(los)
    if rng == 0.0:
        raise GeometryError(f"satellite {sat.sat_id} coincides with receiver")
    row[0:3] = -los / rng
    if layout.has_clock:
        row[layout.clock_index(sat.constellation)] = 1.0
    return row


def make_belief(layout, rng=None):
    mean = layout.zeros()
    if rng is not None:
        mean = rng.normal(scale=10.0, size=layout.dim)
    return BeliefState(mean, initial_covariance(layout), layout)


def make_sat(pos, constellation=Constellation.GPS, pseudorange=2.0e7, sat_id="G01"):
    return SatObservation(
        sat_id=sat_id,
        constellation=constellation,
        sat_pos=np.asarray(pos, dtype=float),
        pseudorange=pseudorange,
        snr=50.0,
        elevation=math.radians(45.0),
    )


class TestPredict:
    def test_rest_state_unchanged(self):
        b = make_belief(LC)
        out = predict(b, np.zeros(3), 1.0)
        assert np.allclose(out.mean, b.mean)

    def test_unit_motion(self):
        b = make_belief(LC)
        b.mean[3:6] = [1.0, 0.0, 0.0]
        out = predict(b, np.zeros(3), 1.0)
        assert np.allclose(out.mean[0:3], [1.0, 0.0, 0.0])
        assert np.allclose(out.mean[3:6], [1.0, 0.0, 0.0])

    def test_trace_grows_with_psd_noise(self):
        # with no pos/vel cross-correlation the transition cannot shed trace,
        # so uncertainty plus PSD process noise must grow it
        rng = np.random.default_rng(0)
        for _ in range(20):
            cov = np.diag(rng.uniform(0.1, 50.0, size=9))
            b = BeliefState(rng.normal(size=9), cov, LC)
            out = predict(b, rng.normal(size=3), 1.0)
            assert np.trace(out.cov) >= np.trace(b.cov) - 1e-9
            # the added process noise itself stays PSD
            f = np.eye(9)
            f[0:3, 3:6] = np.eye(3)
            added = out.cov - f @ b.cov @ f.T
            assert np.linalg.eigvalsh(0.5 * (added + added.T)).min() >= -1e-9

    def test_half_step_composition(self):
        rng = np.random.default_rng(1)
        accel = rng.normal(size=3)
        b = make_belief(LC, rng)
        dt = 1.0
        once = predict(b, accel, dt)
        twice = predict(predict(b, accel, dt / 2), accel, dt / 2)
        assert np.allclose(twice.mean[3:6], once.mean[3:6], atol=1e-12)
        bound = np.linalg.norm(accel) * dt**2 / 4 + 1e-12
        assert np.linalg.norm(twice.mean[0:3] - once.mean[0:3]) <= bound

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            predict(make_belief(LC), np.zeros(3), 0.0)

    def test_clock_bias_constant(self):
        b = make_belief(TC)
        b.mean[9:] = [120.0, 95.0]
        out = predict(b, np.ones(3), 1.0)
        assert np.allclose(out.mean[9:], [120.0, 95.0])

    def test_covariance_symmetric(self):
        rng = np.random.default_rng(2)
        b = make_belief(TC, rng)
        out = predict(b, rng.normal(size=3), 1.0)
        assert np.allclose(out.cov, out.cov.T, atol=1e-10)
        assert np.linalg.eigvalsh(out.cov).min() >= -1e-9


class TestUpdateLc:
    def test_zero_innovation_keeps_mean(self):
        b = make_belief(LC)
        b.mean[0:3] = [1000.0, -2000.0, 500.0]
        out = update_lc(b, b.mean[0:3].copy(), np.full(3, 100.0))
        assert np.allclose(out.mean, b.mean, atol=1e-12)

    def test_uninformative_measurement(self):
        b = make_belief(LC)
        b.mean[0:3] = [10.0, 20.0, 30.0]
        out = update_lc(b, np.array([500.0, 500.0, 500.0]), np.full(3, 1e12))
        assert np.allclose(out.mean[0:3], b.mean[0:3], atol=1e-3)

    def test_matches_textbook_kalman(self):
        # independent closed-form Kalman filter over a 100-epoch linear run
        rng = np.random.default_rng(3)
        layout = LC
        n = layout.dim
        f = np.eye(n)
        f[0:3, 3:6] = np.eye(3)
        h = np.zeros((3, n))
        h[:, 0:3] = np.eye(3)
        q = np.diag(default_process_noise(layout))
        r_diag = np.full(3, 25.0)
        r = np.diag(r_diag)

        b = BeliefState(rng.normal(size=n), initial_covariance(layout), layout)
        x_ref, p_ref = b.mean.copy(), b.cov.copy()
        for _ in range(100):
            accel = rng.normal(size=3)
            fix = rng.normal(scale=5.0, size=3)
            b = update_lc(predict(b, accel, 1.0), fix, r_diag)

            u = np.zeros(n)
            u[3:6] = accel
            x_ref = f @ x_ref + u
            p_ref = f @ p_ref @ f.T + q
            k = p_ref @ h.T @ np.linalg.inv(h @ p_ref @ h.T + r)
            x_ref = x_ref + k @ (fix - h @ x_ref)
            p_ref = (np.eye(n) - k @ h) @ p_ref

            assert np.allclose(b.mean, x_ref, atol=1e-9)
            assert np.allclose(b.cov, p_ref, atol=1e-9)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError):
            update_lc(make_belief(LC), np.zeros(3), np.array([1.0, -1.0, 1.0]))


class TestUpdateTc:
    def test_axis_aligned_range(self):
        b = make_belief(TC)
        b.mean[9] = 7.0  # GPS clock bias
        sat = make_sat([3.0e7, 0.0, 0.0])
        assert predicted_pseudorange(b.mean, sat, TC) == pytest.approx(3.0e7 + 7.0)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            state = rng.normal(scale=100.0, size=TC.dim)
            sat = make_sat(rng.normal(scale=1.0, size=3) * 1e7 + 2e7)
            row = pseudorange_jacobian_row(state, sat, TC)
            num = np.zeros(TC.dim)
            h = 1e-2
            for j in range(TC.dim):
                sp, sm = state.copy(), state.copy()
                sp[j] += h
                sm[j] -= h
                num[j] = (
                    predicted_pseudorange(sp, sat, TC) - predicted_pseudorange(sm, sat, TC)
                ) / (2 * h)
            scale = max(1.0, np.abs(row).max())
            assert np.allclose(row, num, atol=1e-6 * scale)

    def test_posterior_contracts_toward_truth(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            truth = TC.zeros()
            truth[0:3] = rng.normal(scale=50.0, size=3)
            truth[9:] = rng.normal(scale=30.0, size=2)
            sats = []
            for i in range(8):
                az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 1.4)
                direction = np.array(
                    [math.sin(az) * math.cos(el), math.cos(az) * math.cos(el), math.sin(el)]
                )
                pos = truth[0:3] + 2.2e7 * direction
                constellation = Constellation.GPS if i % 2 == 0 else Constellation.BEIDOU
                rng_true = np.linalg.norm(pos - truth[0:3])
                rho = rng_true + truth[TC.clock_index(constellation)]
                sats.append(make_sat(pos, constellation, pseudorange=rho, sat_id=f"S{i}"))
            prior = BeliefState(
                truth + rng.normal(scale=5.0, size=TC.dim), initial_covariance(TC), TC
            )
            post = update_tc(prior, sats, np.full(len(sats), 1.0))
            assert np.linalg.norm(post.mean[0:3] - truth[0:3]) <= np.linalg.norm(
                prior.mean[0:3] - truth[0:3]
            ) + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sats=st.integers(1, 10))
    def test_matches_per_satellite_oracle(self, seed, n_sats):
        # the stacked kernel against a textbook update built from the
        # per-satellite model; only the range rounding differs
        rng = np.random.default_rng(seed)
        mean = rng.normal(scale=100.0, size=TC.dim)
        a = rng.normal(size=(TC.dim, TC.dim))
        cov = np.diag(np.diag(initial_covariance(TC)) * rng.uniform(0.1, 10.0, TC.dim)) + a @ a.T
        prior = BeliefState(mean, cov, TC)
        sats = []
        for i in range(n_sats):
            direction = rng.normal(size=3)
            pos = mean[0:3] + 2.2e7 * direction / np.linalg.norm(direction)
            constellation = (Constellation.GPS, Constellation.BEIDOU)[int(rng.integers(2))]
            rho = 2.2e7 + mean[TC.clock_index(constellation)] + rng.normal(scale=20.0)
            sats.append(make_sat(pos, constellation, pseudorange=rho, sat_id=f"S{i}"))
        r_diag = rng.uniform(0.5, 50.0, size=n_sats)

        h = np.array([pseudorange_jacobian_row(mean, sat, TC) for sat in sats])
        innovation = np.array(
            [sat.pseudorange - predicted_pseudorange(mean, sat, TC) for sat in sats]
        )
        r = np.diag(r_diag)
        k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
        ikh = np.eye(TC.dim) - k @ h
        expected_mean = mean + k @ innovation
        expected_cov = ikh @ cov @ ikh.T + k @ r @ k.T

        post = update_tc(prior, sats, r_diag)
        for got, want in ((post.mean, expected_mean), (post.cov, expected_cov)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_coincident_satellite_raises(self):
        b = make_belief(TC)
        sat = make_sat([0.0, 0.0, 0.0])
        with pytest.raises(GeometryError):
            update_tc(b, [sat], np.ones(1))

    def test_empty_satellite_list(self):
        with pytest.raises(ValueError):
            update_tc(make_belief(TC), [], np.ones(0))


def test_default_process_noise_blocks():
    q = default_process_noise(TC)
    assert np.allclose(q[0:3], 0.09)
    assert np.allclose(q[3:6], 0.0225)
    assert np.allclose(q[6:9], 1e-4)
    assert np.allclose(q[9:], 25.0)


def test_accumulated_process_noise_matches_stepwise():
    # brute-force oracle: propagate n sub-predictions explicitly
    from gnssins.ekf import accumulated_process_noise

    layout = TC
    n_steps, dt_total = 20, 1.0
    dt_s = dt_total / n_steps
    q = np.diag(default_process_noise(layout))
    f_sub = np.eye(layout.dim)
    f_sub[0:3, 3:6] = dt_s * np.eye(3)
    acc = np.zeros((layout.dim, layout.dim))
    for _ in range(n_steps):
        acc = f_sub @ acc @ f_sub.T + q
    expected = acc
    got = accumulated_process_noise(layout, n_steps, dt_total)
    assert np.allclose(got, expected, atol=1e-9)

    one = accumulated_process_noise(layout, 1, dt_total)
    assert np.allclose(one, q, atol=1e-12)
