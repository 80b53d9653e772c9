import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_CLOCKS, toy_epochs
from gnssins.fgo import (
    BATCH,
    EpochWls,
    FgoConfig,
    FgoEstimator,
    build_window,
    clock_walk_factor,
    gnss_fix_factor,
    ins_factor,
    motion_factor,
    prior_factor,
    pseudorange_factor,
    single_epoch_wls,
)
from gnssins.noise_models import (
    GeometryError,
    SatObservation,
    WeightingParams,
    ins_cov,
    lc_fix_covariance,
    motion_model_cov,
    tc_covariance,
)
from gnssins.nls_solver import (
    LmConfig,
    NlsProblem,
    ResidualBlock,
    numeric_jacobian,
    solve_damped,
    solve_lm,
    sqrt_info_from_cov_diag,
)
from gnssins.types import Constellation, StateLayout

TC = StateLayout((Constellation.GPS, Constellation.BEIDOU))
LC = StateLayout()


def random_state(rng, layout):
    x = layout.zeros()
    x[0:3] = rng.normal(scale=1e3, size=3)
    x[3:6] = rng.normal(scale=10.0, size=3)
    x[6:9] = rng.normal(scale=0.1, size=3)
    if layout.has_clock:
        x[9:] = rng.normal(scale=100.0, size=layout.dim - 9)
    return x


class TestMotionFactor:
    def test_consistent_pair_is_zero(self):
        rng = np.random.default_rng(0)
        xp = random_state(rng, TC)
        xc = xp.copy()
        xc[0:3] = xp[0:3] + xp[3:6] * 1.0
        f = motion_factor(0, 1, 1.0, motion_model_cov(), TC)
        assert np.allclose(f.fn(xp, xc), 0.0, atol=1e-12)

    def test_position_perturbation_whitens_to_one(self):
        xp = TC.zeros()
        xc = TC.zeros()
        xc[0] = 0.3
        f = motion_factor(0, 1, 1.0, motion_model_cov(), TC)
        assert np.allclose(f.sqrt_info @ f.fn(xp, xc), [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_bias_perturbation_whitens_to_one(self):
        xp = TC.zeros()
        xc = TC.zeros()
        xc[6] = 0.01
        f = motion_factor(0, 1, 1.0, motion_model_cov(), TC)
        assert np.allclose(f.sqrt_info @ f.fn(xp, xc), [0, 0, 0, 1, 0, 0], atol=1e-12)


class TestInsFactor:
    def test_exact_integration_is_zero(self):
        rng = np.random.default_rng(1)
        accel = rng.normal(size=3)
        xp = random_state(rng, TC)
        xc = xp.copy()
        xc[3:6] = xp[3:6] + accel * 1.0
        f = ins_factor(0, 1, accel, 1.0, ins_cov(), TC)
        assert np.allclose(f.fn(xp, xc), 0.0, atol=1e-12)

    def test_velocity_perturbation_whitens_to_one(self):
        xp = TC.zeros()
        xc = TC.zeros()
        xc[3] = 0.15
        f = ins_factor(0, 1, np.zeros(3), 1.0, ins_cov(), TC)
        assert np.allclose(f.sqrt_info @ f.fn(xp, xc), [1, 0, 0], atol=1e-12)

    def test_residual_linear_in_perturbation(self):
        f = ins_factor(0, 1, np.zeros(3), 1.0, ins_cov(), TC)
        xp = TC.zeros()
        one = TC.zeros()
        one[4] = 0.2
        three = TC.zeros()
        three[4] = 0.6
        assert np.allclose(3.0 * f.fn(xp, one), f.fn(xp, three), atol=1e-12)


class TestGnssFixFactor:
    def test_agreement_is_zero(self):
        x = LC.zeros()
        x[0:3] = [10.0, -4.0, 2.0]
        f = gnss_fix_factor(0, x[0:3].copy(), lc_fix_covariance(1.0, 10.0), LC)
        assert np.allclose(f.fn(x), 0.0)

    def test_ten_meter_offset_whitens_to_unit_norm(self):
        x = LC.zeros()
        fix = np.array([10.0, 0.0, 0.0])
        f = gnss_fix_factor(0, fix, lc_fix_covariance(1.0, 10.0), LC)
        assert np.linalg.norm(f.sqrt_info @ f.fn(x)) == pytest.approx(1.0)


class TestPseudorangeFactor:
    def make_sat(self, pos, constellation=Constellation.GPS):
        return SatObservation(
            sat_id="G01",
            constellation=constellation,
            sat_pos=np.asarray(pos, dtype=float),
            pseudorange=2.0e7,
            snr=50.0,
            elevation=math.radians(50),
        )

    def test_perfect_measurement_zero(self):
        x = TC.zeros()
        x[9] = 7.0
        sat = self.make_sat([2.0e7 - 7.0, 0.0, 0.0])
        sat.pseudorange = 2.0e7 - 7.0 + 7.0
        f = pseudorange_factor(0, sat, 1.0, TC)
        assert f.fn(x)[0] == pytest.approx(0.0, abs=1e-9)

    def test_excess_is_signed_residual(self):
        x = TC.zeros()
        sat = self.make_sat([1.0e7, 0.0, 0.0])
        sat.pseudorange = 1.0e7 + 5.0
        f = pseudorange_factor(0, sat, 1.0, TC)
        assert f.fn(x)[0] == pytest.approx(5.0, abs=1e-9)

    def test_analytic_jacobian_matches_numeric(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = random_state(rng, TC)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            sat = self.make_sat(x[0:3] + 2.2e7 * direction, Constellation.BEIDOU)
            f = pseudorange_factor(0, sat, 1.0, TC)
            analytic = f.jac(x)[0]
            numeric = numeric_jacobian(f, [x], h=1e-2)
            assert np.allclose(analytic, numeric, atol=1e-6 * max(1.0, np.abs(analytic).max()))


def test_all_factor_jacobians_match_numeric():
    rng = np.random.default_rng(3)
    accel = rng.normal(size=3)
    factors = [
        motion_factor(0, 1, 1.0, motion_model_cov(), TC),
        ins_factor(0, 1, accel, 1.0, ins_cov(), TC),
        clock_walk_factor(0, 1, 5.0, TC),
    ]
    for f in factors:
        xp, xc = random_state(rng, TC), random_state(rng, TC)
        analytic = np.hstack(f.jac(xp, xc))
        numeric = numeric_jacobian(f, [xp, xc], h=1e-5)
        assert np.allclose(analytic, numeric, atol=1e-6)
    fix_f = gnss_fix_factor(0, rng.normal(size=3), lc_fix_covariance(1.0, 10.0), LC)
    x = random_state(rng, LC)
    assert np.allclose(fix_f.jac(x)[0], numeric_jacobian(fix_f, [x], h=1e-5), atol=1e-6)
    prior_f = prior_factor(0, random_state(rng, TC), np.ones(TC.dim), TC)
    assert np.allclose(prior_f.jac(x)[0], numeric_jacobian(prior_f, [random_state(rng, TC)], h=1e-5), atol=1e-6)


class TestSingleEpochWls:
    def test_recovers_truth_from_exact_data(self):
        epochs, truth = toy_epochs(1)
        pos, clocks = single_epoch_wls(epochs[0].sats, WeightingParams())
        assert np.linalg.norm(pos - truth[0]) < 1e-6
        assert clocks[Constellation.GPS] == pytest.approx(TOY_CLOCKS[Constellation.GPS], abs=1e-6)
        assert clocks[Constellation.BEIDOU] == pytest.approx(TOY_CLOCKS[Constellation.BEIDOU], abs=1e-6)

    def test_too_few_satellites(self):
        epochs, _ = toy_epochs(1)
        with pytest.raises(GeometryError):
            single_epoch_wls(epochs[0].sats[:4], WeightingParams())


def closure_wls_problem(sats, weighting, initial=None):
    """The former single-epoch WLS: one closure ResidualBlock per satellite on
    the per-block NlsProblem. Returns the problem and its constellations."""
    consts = []
    for s in sats:
        if s.constellation not in consts:
            consts.append(s.constellation)
    n_unknowns = 3 + len(consts)
    if len(sats) < n_unknowns:
        raise GeometryError(f"{len(sats)} satellites cannot determine {n_unknowns} unknowns")
    sigma2 = tc_covariance(sats, weighting)

    def make_block(sat, s2):
        col = 3 + consts.index(sat.constellation)

        def residual(x):
            rng = np.linalg.norm(sat.sat_pos - x[0:3])
            if rng == 0.0:
                raise GeometryError("satellite coincides with receiver")
            return np.array([sat.pseudorange - rng - x[col]])

        def jacobian(x):
            los = sat.sat_pos - x[0:3]
            j = np.zeros((1, n_unknowns))
            # evaluated before the residual, which raises on a zero range
            with np.errstate(invalid="ignore"):
                j[0, 0:3] = los / np.linalg.norm(los)
            j[0, col] = -1.0
            return [j]

        return ResidualBlock((0,), 1, residual, sqrt_info_from_cov_diag([s2]), jacobian)

    x0 = np.zeros(n_unknowns)
    if initial is not None:
        x0[0:3] = initial
    blocks = [make_block(s, s2) for s, s2 in zip(sats, sigma2)]
    return NlsProblem([n_unknowns], blocks, x0), consts


def solve_or_geometry_error(problem, lm):
    try:
        return solve_lm(problem, lm)
    except GeometryError:
        return GeometryError


def gradient_cosine(problem, x):
    """The largest cosine of ``LmConfig.gtol``'s gradient test at ``x``."""
    ab, g, cost = problem.normal_equations(x)
    return float(np.max(np.abs(g) / np.sqrt(ab[-1] * cost)))


class TestStackedWlsMatchesClosureBlocks:
    @settings(max_examples=80, deadline=None)
    @given(
        n_sats=st.integers(3, 8),
        mixed=st.booleans(),
        start=st.sampled_from(["none", "near", "on_satellite"]),
        max_iters=st.sampled_from([1, 2, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_equations_solution_and_errors(self, n_sats, mixed, start, max_iters, seed):
        rng = np.random.default_rng(seed)
        epochs, truth = toy_epochs(1, pr_noise=rng.normal(scale=3.0, size=(1, 8)))
        sats = list(rng.permutation(epochs[0].sats)[:n_sats])
        if not mixed:
            for s in sats:
                s.constellation = Constellation.GPS
        initial = {
            "none": None,
            "near": truth[0] + rng.normal(scale=200.0, size=3),
            "on_satellite": sats[0].sat_pos.copy(),
        }[start]
        weighting = WeightingParams(T=float(rng.uniform(40.0, 50.0)))

        try:
            oracle, consts = closure_wls_problem(sats, weighting, initial)
        except GeometryError:
            with pytest.raises(GeometryError):
                EpochWls(sats, weighting, initial)
            with pytest.raises(GeometryError):
                single_epoch_wls(sats, weighting, initial)
            return
        problem = EpochWls(sats, weighting, initial)
        assert problem.constellations == tuple(consts)
        assert np.array_equal(problem.initial_values, oracle.initial_values)

        x = problem.initial_values + rng.normal(scale=50.0, size=problem.dim)
        ab, g, cost = problem.normal_equations(x)
        ab_ref, g_ref, cost_ref = oracle.normal_equations(x)
        assert ab.shape == ab_ref.shape
        assert close(ab, ab_ref)
        assert close(g, g_ref)
        assert cost == pytest.approx(cost_ref, rel=1e-9)
        assert problem.cost(x) == pytest.approx(oracle.cost(x), rel=1e-9)

        lm = LmConfig(max_iters=max_iters)
        report = solve_or_geometry_error(problem, lm)
        ref = solve_or_geometry_error(oracle, lm)
        if ref is GeometryError:
            assert report is GeometryError
            return
        assert report is not GeometryError
        if report.converged != ref.converged:
            # a solve cut by max_iters is converged if the gradient test then
            # holds; only a cosine within rounding of gtol may decide it apart
            assert max_iters < 100
            assert lm.gtol / 3 < gradient_cosine(oracle, ref.values) < 3 * lm.gtol
            return
        # iterates of a cut solve are mid-path, where the large first steps
        # from the Earth's centre magnify rounding (measured up to 3e-10)
        assert close(report.values, ref.values, rel=1e-9 if ref.converged else 1e-6)
        if ref.converged:
            pos, clocks = single_epoch_wls(sats, weighting, initial, lm)
            assert close(pos, ref.values[0:3])
            assert list(clocks) == consts
        else:
            with pytest.raises(GeometryError):
                single_epoch_wls(sats, weighting, initial, lm)


class TestBuildWindow:
    def setup_entries(self, n, mode="tc"):
        epochs, _ = toy_epochs(n)
        cfg = FgoConfig(mode=mode, window_size=BATCH)
        layout = TC if mode == "tc" else LC
        est = FgoEstimator(cfg, layout)
        for e in epochs:
            est.step(e)
        return est.entries, layout

    def count(self, problem, label):
        return sum(1 for b in problem.blocks if b.label.startswith(label))

    def test_window_one_structure(self):
        # window size 1 jointly optimizes the current and last epochs
        entries, layout = self.setup_entries(5)
        cfg = FgoConfig(mode="tc", window_size=1)
        problem = build_window(entries, cfg, layout)
        assert len(problem.state_dims) == 2
        assert self.count(problem, "prior") == 1
        assert self.count(problem, "motion") == 1
        assert self.count(problem, "ins") == 1
        gnss = [b for b in problem.blocks if b.label.startswith("pseudorange")]
        assert len(gnss) == len(entries[-1].meas.sats) + len(entries[-2].meas.sats)
        assert {b.state_indices[0] for b in gnss} == {0, 1}

    def test_batch_structure(self):
        entries, layout = self.setup_entries(6)
        cfg = FgoConfig(mode="tc", window_size=BATCH)
        problem = build_window(entries, cfg, layout)
        assert len(problem.state_dims) == 6
        assert self.count(problem, "motion") == 5
        assert self.count(problem, "ins") == 5
        assert self.count(problem, "pseudorange") == sum(len(e.meas.sats) for e in entries)
        assert self.count(problem, "prior") == 1

    def test_tc_factor_count_formula(self):
        # with W in-graph states: (W-1) motion + (W-1) INS + all satellite
        # factors of those epochs + 1 prior
        entries, layout = self.setup_entries(8)
        cfg = FgoConfig(mode="tc", window_size=4)
        problem = build_window(entries, cfg, layout)
        n_states = len(problem.state_dims)
        assert n_states == 5
        n_sats = sum(len(e.meas.sats) for e in entries[len(entries) - n_states :])
        expected = (n_states - 1) * 2 + n_sats + 1
        non_clock = [b for b in problem.blocks if b.label != "clock_walk"]
        assert len(non_clock) == expected

    def test_motion_equals_ins_count_invariant(self):
        entries, layout = self.setup_entries(10)
        for w in (1, 3, 7, BATCH):
            problem = build_window(entries, FgoConfig(mode="tc", window_size=w), layout)
            n_states = len(problem.state_dims)
            assert self.count(problem, "motion") == n_states - 1
            assert self.count(problem, "ins") == n_states - 1

    def test_empty_history_errors(self):
        with pytest.raises(ValueError):
            build_window([], FgoConfig(), TC)


def dense_from_band(ab):
    u, n = ab.shape[0] - 1, ab.shape[1]
    h = np.zeros((n, n))
    for k in range(u + 1):
        h += np.diag(ab[u - k, k:], k)
        if k:
            h += np.diag(ab[u - k, k:], -k)
    return h


def close(actual, expected, rel=1e-9):
    return np.abs(actual - expected).max() <= rel * np.abs(expected).max()


class TestArrayWindowMatchesOracle:
    """The stacked-array window against per-block assembly of its own blocks."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["tc", "lc"]),
        window=st.sampled_from([1, 4, BATCH]),
        slid=st.booleans(),
        cov_scale=st.sampled_from([1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normal_equations_and_damped_solve(self, mode, window, slid, cov_scale, seed):
        rng = np.random.default_rng(seed)
        layout = TC if mode == "tc" else LC
        # a slid window drops older epochs and anchors at the tight prior; an
        # unslid one (always the case in batch) keeps the wide first prior
        span = 8 if window is BATCH else window + 1
        if slid and window is not BATCH:
            n_epochs = span + int(rng.integers(1, 4))
        else:
            n_epochs = int(rng.integers(2, span + 1))
        epochs, _ = toy_epochs(
            n_epochs,
            pr_noise=rng.normal(scale=3.0, size=(n_epochs, 8)),
            fix_noise=rng.normal(scale=3.0, size=(n_epochs, 3)),
        )
        est = FgoEstimator(FgoConfig(mode=mode, window_size=2), layout)
        for e in epochs:
            est.step(e)
        cfg = FgoConfig(mode=mode, window_size=window, cov_scale=cov_scale)
        w = build_window(est.entries, cfg, layout)
        assert (len(w.state_dims) < n_epochs) == (slid and window is not BATCH)

        x = w.initial_values + rng.normal(scale=2.0, size=w.total_dim)
        oracle = NlsProblem(w.state_dims, list(w.blocks), x)
        ab, g, cost = w.normal_equations(x)
        ab_ref, g_ref, cost_ref = oracle.normal_equations(x)
        assert ab.shape == ab_ref.shape == (2 * layout.dim, w.total_dim)
        assert close(ab, ab_ref)
        assert close(g, g_ref)
        assert cost == pytest.approx(cost_ref, rel=1e-9)
        assert w.cost(x) == pytest.approx(oracle.cost(x), rel=1e-9)

        lam = float(10.0 ** rng.uniform(-6, 0))
        diag = ab[-1]
        delta = solve_damped(ab, diag, lam, g)
        expected = np.linalg.solve(dense_from_band(ab) + lam * np.diag(diag), -g)
        assert close(delta, expected)


class TestFgoEstimator:
    def test_noise_free_convergence_tc(self):
        epochs, truth = toy_epochs(12)
        est = FgoEstimator(FgoConfig(mode="tc", window_size=5), TC)
        errs = [np.linalg.norm(est.step(e).state[0:3] - t) for e, t in zip(epochs, truth)]
        assert errs[-1] < 1e-3
        assert max(errs[10:]) < 1e-3  # converged after startup

    def test_noise_free_convergence_lc(self):
        # LC velocity is observed only through fix differences, so the
        # window must span enough epochs to dominate the sliding prior
        epochs, truth = toy_epochs(20)
        est = FgoEstimator(FgoConfig(mode="lc", window_size=30), LC)
        errs = [np.linalg.norm(est.step(e).state[0:3] - t) for e, t in zip(epochs, truth)]
        assert errs[-1] < 1e-3

    def test_window_one_matches_batch_on_clean_data(self):
        # once the startup transient decays there are no outliers to
        # distinguish the windows, so both solve the same consistent problem
        epochs, _ = toy_epochs(100)
        est1 = FgoEstimator(FgoConfig(mode="tc", window_size=1), TC)
        est2 = FgoEstimator(FgoConfig(mode="tc", window_size=BATCH), TC)
        for e in epochs:
            s1 = est1.step(e).state
            s2 = est2.step(e).state
        assert np.linalg.norm(s1[0:3] - s2[0:3]) < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        noise = rng.normal(scale=2.0, size=(10, 8))
        epochs1, _ = toy_epochs(10, pr_noise=noise)
        epochs2, _ = toy_epochs(10, pr_noise=noise)
        est1 = FgoEstimator(FgoConfig(mode="tc", window_size=3), TC)
        est2 = FgoEstimator(FgoConfig(mode="tc", window_size=3), TC)
        for e1, e2 in zip(epochs1, epochs2):
            s1 = est1.step(e1).state
            s2 = est2.step(e2).state
            assert np.array_equal(s1, s2)

    def test_covariance_scaling_argmin_invariance(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(scale=3.0, size=(12, 8))
        results = []
        for scale in (1.0, 10.0):
            epochs, _ = toy_epochs(12, pr_noise=noise)
            est = FgoEstimator(FgoConfig(mode="tc", window_size=4, cov_scale=scale), TC)
            results.append([est.step(e).state[0:3].copy() for e in epochs])
        for a, b in zip(results[0], results[1]):
            assert np.linalg.norm(a - b) < 1e-6

    def test_out_of_window_mutation_has_no_effect(self):
        rng = np.random.default_rng(6)
        noise = rng.normal(scale=1.0, size=(60, 8))
        mutated = noise.copy()
        mutated[2, :] += 25.0  # corrupt an epoch far outside the final window
        finals = []
        for n in (noise, mutated):
            epochs, _ = toy_epochs(60, pr_noise=n)
            est = FgoEstimator(FgoConfig(mode="tc", window_size=3), TC)
            for e in epochs:
                result = est.step(e)
            finals.append(result.state[0:3])
        assert np.linalg.norm(finals[0] - finals[1]) < 1e-4

    def test_epochs_must_increase(self):
        epochs, _ = toy_epochs(2)
        est = FgoEstimator(FgoConfig(mode="tc", window_size=1), TC)
        est.step(epochs[0])
        est.step(epochs[1])
        with pytest.raises(ValueError):
            est.step(epochs[1])
