import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins import harness
from gnssins.frames import Geodetic, geodetic_to_ecef, rotation_global_from_local
from gnssins.noise_models import SatObservation
from gnssins.residual_analysis import (
    EpochRecord,
    GMM_STD_FLOOR,
    error_2d,
    fit_gmm,
    lc_residual,
    match_components,
    pseudorange_residuals,
    summarize,
    tc_residual,
)
from gnssins.types import Constellation, StateLayout

REF = Geodetic.from_degrees(22.3, 114.2, 10.0)
TC = StateLayout((Constellation.GPS, Constellation.BEIDOU))


class TestError2d:
    def test_identical_positions(self):
        p = geodetic_to_ecef(REF)
        assert error_2d(p, p, REF) == 0.0

    def test_up_displacement_excluded(self):
        p = geodetic_to_ecef(REF)
        up = rotation_global_from_local(REF)[:, 2]
        assert error_2d(p + 7.5 * up, p, REF) == pytest.approx(0.0, abs=1e-9)

    def test_three_four_five(self):
        p = geodetic_to_ecef(REF)
        r = rotation_global_from_local(REF)
        est = p + 3.0 * r[:, 0] + 4.0 * r[:, 1]
        assert error_2d(est, p, REF) == pytest.approx(5.0, abs=1e-9)

    def test_invariant_to_up_component(self):
        rng = np.random.default_rng(0)
        p = geodetic_to_ecef(REF)
        r = rotation_global_from_local(REF)
        for _ in range(20):
            est = p + r @ rng.normal(size=3)
            base = error_2d(est, p, REF)
            shifted = error_2d(est + rng.normal() * 10.0 * r[:, 2], p, REF)
            assert shifted == pytest.approx(base, abs=1e-9)


class TestResiduals:
    def test_lc_residual_zero_and_offset(self):
        state = TC.zeros()
        state[0:3] = [100.0, 200.0, 300.0]
        assert lc_residual(state[0:3].copy(), state) == 0.0
        fix = state[0:3] + np.array([10.0, 0.0, 0.0])
        assert lc_residual(fix, state) == pytest.approx(10.0)

    def test_lc_residual_rotation_invariant(self):
        rng = np.random.default_rng(1)
        rot = rotation_global_from_local(REF)
        state = TC.zeros()
        state[0:3] = rng.normal(size=3)
        fix = rng.normal(size=3)
        rotated_state = TC.zeros()
        rotated_state[0:3] = rot @ state[0:3]
        assert lc_residual(rot @ fix, rotated_state) == pytest.approx(
            lc_residual(fix, state), abs=1e-9
        )

    def make_sat(self, pos, rho, constellation=Constellation.GPS):
        return SatObservation(
            sat_id="X",
            constellation=constellation,
            sat_pos=pos,
            pseudorange=rho,
            snr=50.0,
            elevation=0.7,
        )

    def test_tc_residual_perfect(self):
        state = TC.zeros()
        state[9] = 5.0
        sat_pos = np.array([1.0e7, 0.0, 0.0])
        sat = self.make_sat(sat_pos, 1.0e7 + 5.0)
        raw = pseudorange_residuals([sat], state, TC)
        assert tc_residual(raw) == pytest.approx(0.0, abs=1e-9)

    def test_tc_residual_single_excess(self):
        state = TC.zeros()
        sat = self.make_sat(np.array([1.0e7, 0.0, 0.0]), 1.0e7 + 7.0)
        raw = pseudorange_residuals([sat], state, TC)
        assert tc_residual(raw) == pytest.approx(7.0, abs=1e-9)

    def test_tc_residual_signed_mean(self):
        state = TC.zeros()
        sats = [
            self.make_sat(np.array([1.0e7, 0.0, 0.0]), 1.0e7 + 4.0),
            self.make_sat(np.array([0.0, 1.0e7, 0.0]), 1.0e7 - 2.0),
        ]
        raw = pseudorange_residuals(sats, state, TC)
        assert np.allclose(raw, [4.0, -2.0])
        assert tc_residual(raw) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sats=st.integers(1, 12))
    def test_pseudorange_residuals_match_per_satellite_loop(self, seed, n_sats):
        rng = np.random.default_rng(seed)
        state = rng.normal(scale=100.0, size=TC.dim)
        sats = [
            self.make_sat(
                rng.normal(scale=1.5e7, size=3),
                float(rng.uniform(1.0e7, 3.0e7)),
                (Constellation.GPS, Constellation.BEIDOU)[int(rng.integers(2))],
            )
            for _ in range(n_sats)
        ]
        loop = [
            sat.pseudorange
            - float(np.linalg.norm(sat.sat_pos - state[0:3]))
            - state[TC.clock_index(sat.constellation)]
            for sat in sats
        ]
        # the two differ only in how the range is rounded
        atol = 4 * np.finfo(float).eps * 3.0e7
        np.testing.assert_allclose(pseudorange_residuals(sats, state, TC), loop, rtol=0, atol=atol)

    def test_tc_residual_empty(self):
        with pytest.raises(ValueError):
            tc_residual(pseudorange_residuals([], TC.zeros(), TC))


class TestFitGmm:
    def test_single_gaussian_recovery(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(0.0, 1.0, size=10_000)
        model = fit_gmm(samples, 1)
        assert model.components[0].mean == pytest.approx(0.0, abs=0.1)
        assert model.components[0].std == pytest.approx(1.0, abs=0.1)

    def test_k1_equals_sample_moments(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(3.0, 2.0, size=500)
        model = fit_gmm(samples, 1)
        assert model.components[0].mean == pytest.approx(float(np.mean(samples)), abs=1e-9)
        assert model.components[0].std == pytest.approx(float(np.std(samples)), abs=1e-9)
        assert model.components[0].weight == pytest.approx(1.0, abs=1e-12)

    def test_three_component_recovery(self):
        rng = np.random.default_rng(4)
        weights, means, stds = [0.2, 0.5, 0.3], [-5.0, 0.0, 40.0], [2.0, 3.0, 15.0]
        counts = rng.multinomial(20_000, weights)
        samples = np.concatenate(
            [rng.normal(m, s, size=c) for m, s, c in zip(means, stds, counts)]
        )
        model = fit_gmm(samples, 3)
        matched = match_components(model, means)
        for comp, target in zip(matched, means):
            assert abs(comp.mean - target) < 1.0

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(5)
        samples = np.concatenate(
            [rng.normal(-3, 1, size=400), rng.normal(5, 2, size=600)]
        )
        model = fit_gmm(samples, 2)
        trace = model.ll_trace
        assert len(trace) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_weights_simplex_and_order(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(0, 5, size=2000)
        model = fit_gmm(samples, 3)
        total = sum(c.weight for c in model.components)
        assert total == pytest.approx(1.0, abs=1e-9)
        means = [c.mean for c in model.components]
        assert means == sorted(means)
        assert all(c.std > 0 for c in model.components)

    def test_permutation_of_samples_is_irrelevant(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(2.0, 3.0, size=1000)
        m1 = fit_gmm(samples, 2)
        m2 = fit_gmm(samples[::-1].copy(), 2)
        for c1, c2 in zip(m1.components, m2.components):
            assert c1.mean == pytest.approx(c2.mean, abs=1e-12)
            assert c1.std == pytest.approx(c2.std, abs=1e-12)
            assert c1.weight == pytest.approx(c2.weight, abs=1e-12)

    def test_std_floor_applied(self):
        samples = np.array([0.0, 0.0, 0.0, 1e-9, 5.0])
        model = fit_gmm(samples, 2)
        assert all(c.std >= GMM_STD_FLOOR for c in model.components)

    def test_too_few_distinct_samples(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, 1.0, 1.0], 2)


class TestSummarize:
    def make_records(self, errs, times=None):
        times = times if times is not None else [0.0] * len(errs)
        return [
            EpochRecord(
                state=np.zeros(9), solve_time=t, epoch=float(i), truth_pos=np.zeros(3), err_2d=e,
                residual=0.0,
            )
            for i, (e, t) in enumerate(zip(errs, times))
        ]

    def test_constant_error(self):
        out = summarize(self.make_records([5.0, 5.0, 5.0]))
        assert out["mean_err"] == pytest.approx(5.0)
        assert out["std_err"] == pytest.approx(0.0)

    def test_two_values(self):
        out = summarize(self.make_records([3.0, 4.0]))
        assert out["mean_err"] == pytest.approx(3.5)
        assert out["std_err"] == pytest.approx(0.5)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(8)
        errs = np.abs(rng.normal(size=100))
        times = rng.uniform(0, 0.01, size=100)
        out = summarize(self.make_records(errs, times))
        assert out["mean_err"] == pytest.approx(float(np.mean(errs)), abs=1e-12)
        assert out["std_err"] == pytest.approx(float(np.std(errs)), abs=1e-12)
        assert out["total_time"] == pytest.approx(float(np.sum(times)), abs=1e-12)

    def test_mean_iterations_is_the_records_mean(self):
        records = self.make_records([1.0] * 5)
        for record, n in zip(records, [0, 1, 2, 1, 3]):
            record.iterations = n
        assert summarize(records)["mean_iterations"] == pytest.approx(7 / 5, abs=1e-15)
        # a filter's records read 0 iterations
        assert summarize(self.make_records([1.0, 2.0]))["mean_iterations"] == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            summarize([])


def test_window_sweep_rows(monkeypatch):
    """The sweep's rows are one ``summarize`` per window size; it lives in
    ``harness.sweep_windows`` and is checked here on fake runs."""

    def fake_run(ds, cfg):
        assert cfg.estimator == "fgo-tc"
        n = 5 if cfg.window is None else int(cfg.window)
        records = [
            EpochRecord(
                state=np.zeros(9), solve_time=0.001, epoch=float(i), truth_pos=np.zeros(3),
                err_2d=float(n), residual=0.0,
            )
            for i in range(10)
        ]
        return harness.RunResult(cfg.estimator, records, summarize(records))

    monkeypatch.setattr(harness, "run_estimator", fake_run)
    rows = harness.sweep_windows(None, [1, 3, None])
    assert [r["window"] for r in rows] == [1, 3, "batch"]
    assert [r["mean_err"] for r in rows] == [1.0, 3.0, 5.0]
    with pytest.raises(ValueError):
        harness.sweep_windows(None, [])
