import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOY_CLOCKS, toy_epochs
from test_noise_models import hdop_per_satellite
from gnssins import fgo
from gnssins.canyon_sim import default_canyon_config, generate_lc_fixes, simulate
from gnssins.fgo import (
    BATCH,
    EpochWls,
    FactorWindow,
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
from gnssins.ekf import default_process_noise, initial_covariance
from gnssins.harness import RunConfig, run_estimator
from gnssins.noise_models import (
    SINGULAR_COND,
    GeometryError,
    SatObservation,
    WeightingParams,
    compute_hdop,
    hdop_array,
    ins_cov,
    lc_fix_covariance,
    motion_model_cov,
    tc_covariance,
)
from gnssins.nls_solver import (
    EvaluationError,
    LmConfig,
    NlsProblem,
    ResidualBlock,
    SolverError,
    numeric_jacobian,
    solve_damped,
    solve_lm,
    sqrt_info_from_cov_diag,
    upper_band,
)
from gnssins.types import POS, VEL, Constellation, StateLayout, constellations_present

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


@pytest.mark.parametrize("mixed", [False, True])
def test_exactly_determined_epoch_gives_no_seed_and_no_fix(mixed):
    """Five satellites overdetermine a GPS-only fix (4 unknowns) but exactly
    determine a GPS+BeiDou one (5 unknowns), which can converge to another
    root; neither the velocity seed nor the simulator's LC fix takes it."""
    same_clock = {c: TOY_CLOCKS[Constellation.GPS] for c in TOY_CLOCKS}
    epochs, truth = toy_epochs(2, clock_offsets=same_clock, n_sats=5)
    if not mixed:
        for e in epochs:
            e.sats = [dataclasses.replace(s, constellation=Constellation.GPS) for s in e.sats]
    assert len(constellations_present(epochs[1].sats)) == (2 if mixed else 1)
    assert fgo.overdetermined(epochs[1].sats) is not mixed
    seed = fgo.position_seed(epochs[1], "tc", WeightingParams(), truth[0])
    generate_lc_fixes(epochs)
    if mixed:
        assert seed is None
        assert not any(e.fix_available for e in epochs)
    else:
        assert np.linalg.norm(seed - truth[1]) < 1e-6
        assert all(np.linalg.norm(e.fix_pos - x) < 1e-6 for e, x in zip(epochs, truth))


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


def singular(problem, x):
    """Whether ``problem``'s J^T J at ``x`` is singular by ``compute_hdop``'s bound."""
    return np.linalg.cond(dense_from_band(problem.normal_equations(x)[0])) > SINGULAR_COND


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
    # from the Earth's centre both solves stop where J^T J is singular
    @example(n_sats=4, mixed=False, start="none", max_iters=100, seed=5416)
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
                EpochWls([sats], weighting, initial)
            with pytest.raises(GeometryError):
                single_epoch_wls(sats, weighting, initial)
            return
        problem = EpochWls([sats], weighting, initial)
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
        if ref.converged and singular(oracle, ref.values):
            # no unique solution: the two solves may stop apart (6 mm at the
            # pinned example), and the WLS must refuse to return either
            with pytest.raises(GeometryError, match="singular"):
                single_epoch_wls(sats, weighting, initial, lm)
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


# what each drawn epoch of TestStackedFixes holds, and whether it gets a fix
EPOCH_KINDS = {
    "mixed": True,  # its 8 satellites, 4 GPS and 4 BeiDou
    "gps": True,  # its 8 satellites, all GPS
    "beidou": True,  # its 8 satellites, all BeiDou
    "subset": True,  # 6 or 7 of its satellites, mixed
    "exact": False,  # 5 mixed satellites: exactly determined, so no fix is taken
    "singular": False,  # 5 GPS satellites at one position: J^T J has rank 2
    "at_receiver": False,  # a satellite where every stacked solve starts
}


def fixes_one_by_one(epochs, weighting):
    """The oracle of ``generate_lc_fixes``: each overdetermined epoch solved
    alone by ``single_epoch_wls``, the first that gives a fix from the Earth's
    centre and every later one from that fix, with ``compute_hdop`` at its
    solution. Returns each epoch's (fix, HDOP), or None."""
    out, start = [], None
    for epoch in epochs:
        fix = None
        if fgo.overdetermined(epoch.sats):
            try:
                pos, _ = single_epoch_wls(epoch.sats, weighting, initial=start)
                fix = pos, compute_hdop(epoch.sats, pos)
            except GeometryError:
                pass
        if fix is not None and start is None:
            start = fix[0]
        out.append(fix)
    return out


class TestStackedFixes:
    """``generate_lc_fixes`` solves its epochs as one ``EpochWls`` stack; each
    epoch solved alone is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(EPOCH_KINDS)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_fixes_as_each_epoch_alone(self, kinds, seed):
        rng = np.random.default_rng(seed)
        # one clock for both constellations, so that relabeled satellites stay consistent
        same_clock = {c: TOY_CLOCKS[Constellation.GPS] for c in TOY_CLOCKS}
        kinds = ["mixed", *kinds]  # the first fix, which every later epoch starts from
        epochs, _ = toy_epochs(len(kinds), clock_offsets=same_clock, pr_noise=rng.normal(scale=3.0, size=(len(kinds), 8)))
        weighting = WeightingParams()
        first_fix, _ = single_epoch_wls(epochs[0].sats, weighting)
        for epoch, kind in zip(epochs, kinds):
            sats = epoch.sats
            if kind in ("gps", "beidou"):
                label = Constellation.GPS if kind == "gps" else Constellation.BEIDOU
                sats = [dataclasses.replace(s, constellation=label) for s in sats]
            elif kind == "subset":
                sats = list(rng.permutation(sats)[: int(rng.integers(6, 8))])
            elif kind == "exact":
                sats = sats[:5]
            elif kind == "singular":
                sats = [
                    dataclasses.replace(s, constellation=Constellation.GPS, sat_pos=sats[0].sat_pos)
                    for s in sats[:5]
                ]
            elif kind == "at_receiver":
                sats = [dataclasses.replace(sats[0], sat_pos=first_fix), *sats[1:]]
            epoch.sats = sats
        expected = fixes_one_by_one(epochs, weighting)

        generate_lc_fixes(epochs, weighting)
        assert [e.fix_available for e in epochs] == [EPOCH_KINDS[kind] for kind in kinds]
        for epoch, want in zip(epochs, expected):
            assert epoch.fix_available == (want is not None)
            if want is None:
                assert epoch.fix_hdop is None
                continue
            # a stacked fix passes LmConfig.gtol's cosine test, |g_i| <= gtol *
            # sqrt(H_ii * cost), which puts it within about gtol * m * DOP^2 *
            # noise of the exact WLS minimum (1e-6 m for 8 satellites, a DOP
            # of 2 and 3 m of noise). A solve alone may stop earlier, on
            # LmConfig.tol: at the worst epoch found (6 satellites, HDOP 2.8)
            # it stopped 1.4e-6 m from the minimum and the stacked fix 1.6e-7
            # m. A hypothesis search that maximised the gap over 3,000 draws
            # found it at most 1.2e-6 m, so 1e-5 m leaves a margin of 8
            assert np.linalg.norm(epoch.fix_pos - want[0]) <= 1e-5
            assert epoch.fix_hdop == pytest.approx(want[1], rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["mixed", "gps", "beidou", "subset"]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_array_hdop_equals_the_scalar_one(self, kinds, seed):
        rng = np.random.default_rng(seed)
        epochs, truth = toy_epochs(len(kinds), pr_noise=rng.normal(scale=3.0, size=(len(kinds), 8)))
        for epoch, kind in zip(epochs, kinds):
            if kind == "subset":
                epoch.sats = list(rng.permutation(epoch.sats)[: int(rng.integers(5, 8))])
            elif kind != "mixed":
                label = Constellation.GPS if kind == "gps" else Constellation.BEIDOU
                epoch.sats = [dataclasses.replace(s, constellation=label) for s in epoch.sats]
        receivers = np.array(truth) + rng.normal(scale=100.0, size=(len(kinds), 3))
        stack = EpochWls([e.sats for e in epochs], WeightingParams())
        hdops = hdop_array(stack.sat_pos, stack.clocks, receivers)
        for epoch, receiver, hdop in zip(epochs, receivers, hdops):
            try:
                want = compute_hdop(epoch.sats, receiver)
            except GeometryError:
                assert math.isnan(hdop)
                continue
            # the stack orders an epoch's clock columns by the whole stack, and
            # inverting G^T G magnifies that rounding by its condition number
            _, cond = hdop_per_satellite(epoch.sats, receiver)
            assert hdop == pytest.approx(want, rel=max(1e-12, np.finfo(float).eps * cond))


def record_forces(est):
    """Wrap the push of ``est``'s window so that it records the specific
    force of every epoch pushed; returns the list it fills."""
    forces, push = [], est.window.push

    def recorded(meas, state, accel_ecef):
        forces.append(accel_ecef)
        push(meas, state, accel_ecef)

    est.window.push = recorded
    return forces


def window_history(window, forces):
    """The window's epochs as (measurements, state, specific force) triples,
    oldest first; ``forces`` holds those of every epoch pushed so far."""
    return list(zip(window.slots["meas"], window.slots["state"].copy(), forces[-window.n :]))


def batch_history(epochs, mode, layout):
    """Every epoch's triple, as a batch estimator leaves them."""
    est = FgoEstimator(RunConfig(estimator=f"fgo-{mode}", window=BATCH), layout)
    forces = record_forces(est)
    for e in epochs:
        est.step(e)
    return window_history(est.window, forces)


def scratch_window(history, cfg, layout, slid=None):
    """A fresh window over the newest W + 1 triples of ``history`` (all of
    them in batch), pushed in order, so that the last push anchors it at the
    oldest. It is slid when it leaves out the first epoch of ``history``,
    which by default is the trajectory's first; ``slid`` says so for any
    other history."""
    kept = history if cfg.window is None else history[-(cfg.window + 1) :]
    window = FactorWindow(cfg, layout)
    # set before the pushes, which hold no more than W + 1 and so drop none
    window.slid = len(kept) < len(history) if slid is None else slid
    for triple in kept:
        window.push(*triple)
    return window


class TestBuildWindow:
    def setup_history(self, n, mode="tc"):
        epochs, _ = toy_epochs(n)
        layout = TC if mode == "tc" else LC
        return batch_history(epochs, mode, layout), layout

    def count(self, problem, label):
        return sum(1 for b in problem.blocks if b.label.startswith(label))

    def test_window_one_structure(self):
        # window size 1 jointly optimizes the current and last epochs
        history, layout = self.setup_history(5)
        cfg = RunConfig(estimator="fgo-tc", window=1)
        problem = scratch_window(history, cfg, layout)
        assert problem.n == 2
        assert self.count(problem, "prior") == 1
        assert self.count(problem, "motion") == 1
        assert self.count(problem, "ins") == 1
        gnss = [b for b in problem.blocks if b.label.startswith("pseudorange")]
        assert len(gnss) == len(history[-1][0].sats) + len(history[-2][0].sats)
        assert {b.state_indices[0] for b in gnss} == {0, 1}

    def test_batch_structure(self):
        history, layout = self.setup_history(6)
        cfg = RunConfig(estimator="fgo-tc", window=BATCH)
        problem = scratch_window(history, cfg, layout)
        assert problem.n == 6
        assert self.count(problem, "motion") == 5
        assert self.count(problem, "ins") == 5
        assert self.count(problem, "pseudorange") == sum(len(e.sats) for e, _, _ in history)
        assert self.count(problem, "prior") == 1

    def test_tc_factor_count_formula(self):
        # with W in-graph states: (W-1) motion + (W-1) INS + all satellite
        # factors of those epochs + 1 prior
        history, layout = self.setup_history(8)
        cfg = RunConfig(estimator="fgo-tc", window=4)
        problem = scratch_window(history, cfg, layout)
        n_states = problem.n
        assert n_states == 5
        n_sats = sum(len(e.sats) for e, _, _ in history[len(history) - n_states :])
        expected = (n_states - 1) * 2 + n_sats + 1
        non_clock = [b for b in problem.blocks if b.label != "clock_walk"]
        assert len(non_clock) == expected

    @pytest.mark.parametrize("window", [1, 4, BATCH])
    def test_lc_factor_count_formula(self, window):
        # 1 prior + (n - 1) motion + (n - 1) INS + one fix per slot that has
        # one: the count fgo.window.blocks_mean reads for an LC run
        epochs, _ = toy_epochs(8)
        for k in (2, 5, 6):
            epochs[k].fix_pos = epochs[k].fix_hdop = None
        history = batch_history(epochs, "lc", LC)
        problem = scratch_window(history, RunConfig(estimator="fgo-lc", window=window), LC)
        fixed = [k for k, (e, _, _) in enumerate(history[-problem.n :]) if e.fix_available]
        assert 0 < len(fixed) < problem.n
        assert len(problem.blocks) == 1 + 2 * (problem.n - 1) + len(fixed)
        fixes = [b for b in problem.blocks if b.label == "gnss_fix"]
        assert [b.state_indices[0] for b in fixes] == fixed

    def test_motion_equals_ins_count_invariant(self):
        history, layout = self.setup_history(10)
        for w in (1, 3, 7, BATCH):
            problem = scratch_window(history, RunConfig(estimator="fgo-tc", window=w), layout)
            n_states = problem.n
            assert self.count(problem, "motion") == n_states - 1
            assert self.count(problem, "ins") == n_states - 1


class TestBandPlacement:
    """The one rule that places a block in a slot's band columns, against
    nls_solver.upper_band of a whole matrix. The whole-window oracle cannot
    see an entry misplaced where the window's blocks happen to be zero."""

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_dense_blocks_land_where_upper_band_puts_them(self, d, seed):
        b = np.random.default_rng(seed).normal(size=(d, d))
        z = np.zeros((d, d))
        # the second slot's d columns, each with its d + 1 band rows
        diagonal = upper_band(np.block([[z, z], [z, b]]), d)[:, d:].T
        above = upper_band(np.block([[z, b], [b.T, z]]), d)[:, d:].T
        assert np.array_equal(fgo._band_columns(b, d), diagonal)
        assert np.array_equal(fgo._band_columns(b, 0), above)


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
        history = batch_history(epochs, mode, layout)
        cfg = RunConfig(estimator=f"fgo-{mode}", window=window, cov_scale=cov_scale)
        w = scratch_window(history, cfg, layout)
        assert (w.n < n_epochs) == (slid and window is not BATCH)

        x = w.initial_values + rng.normal(scale=2.0, size=w.total_dim)
        oracle = NlsProblem([w.dim] * w.n, list(w.blocks), x)
        ab, g, cost = w.normal_equations(x)
        ab_ref, g_ref, cost_ref = oracle.normal_equations(x)
        # the oracle's band follows the widest block span (2 * dim - 1
        # super-diagonals); the window keeps dim, because jac_prev is upper
        # triangular and so the edge block has nothing further out
        d = layout.dim
        assert ab.shape == (d + 1, w.total_dim)
        assert ab_ref.shape == (2 * d, w.total_dim)
        assert not ab_ref[: 2 * d - (d + 1)].any()
        assert close(ab, ab_ref[-(d + 1) :])
        assert close(g, g_ref)
        assert cost == pytest.approx(cost_ref, rel=1e-9)
        assert w.cost(x) == pytest.approx(oracle.cost(x), rel=1e-9)

        lam = float(10.0 ** rng.uniform(-6, 0))
        diag = ab[-1]
        delta = solve_damped(ab, diag, lam, g)
        expected = np.linalg.solve(dense_from_band(ab) + lam * np.diag(diag), -g)
        assert close(delta, expected)


WINDOW_ARRAYS = ("initial_values", "prior_value", "prior_w")
# slot buffers, each with the columns a push writes (those of edge_sub not
# on velocity hold the last pricing)
SLOT_ARRAYS = {"state": ..., "dt": ..., "edge_sub": VEL, "edge_block": ...}
LC_ARRAYS = {"fix_pos": ..., "fix_w": ...}
# padded per slot to the widest slot the window has seen, which a window
# slid past a wide slot keeps and a scratch build may not have; of the
# compact rows, the constant clock part written at push
PADDED_ARRAYS = {
    "sat_pos": (..., 1.0e12),
    "pseudorange": (..., 0.0),
    "clock_col": (..., 9),
    "pr_w": (..., 0.0),
    "pr_rows": (slice(3, -1), 0.0),
}


def assert_same_window(slid, ref):
    """``slid.slots`` is the live view of every slot buffer, and every
    live-slot array of ``slid`` equals ``ref``'s bit for bit; padded rows
    beyond ``ref``'s width hold the padding."""
    assert list(slid.slots["meas"]) == list(ref.slots["meas"]) and slid.slid == ref.slid
    assert len(slid.blocks) == len(ref.blocks)
    assert slid.slots.keys() == slid._buf.keys()
    for name, view in slid.slots.items():
        assert view.base is slid._buf[name], name
        assert len(view) == slid.n - (name in fgo._EDGE_BUFFERS), name
    for name in WINDOW_ARRAYS:
        assert np.array_equal(getattr(slid, name), getattr(ref, name)), name
    tc = slid.cfg.coupling == "tc"
    for name, cols in (SLOT_ARRAYS | ({} if tc else LC_ARRAYS)).items():
        assert np.array_equal(slid.slots[name][:, cols], ref.slots[name][:, cols]), name
    if tc:
        width = ref.slots["pr_w"].shape[1]
        for name, (cols, padding) in PADDED_ARRAYS.items():
            got = slid.slots[name][:, cols]
            assert np.array_equal(got[..., :width], ref.slots[name][:, cols]), name
            assert np.all(got[..., width:] == padding), name


def assert_same_equations(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestSlidingWindow:
    """A window slid one epoch at a time against one pushed full afresh."""

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["tc", "lc"]),
        window=st.sampled_from([1, 4, BATCH]),
        cov_scale=st.sampled_from([1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slide_equals_scratch_build(self, mode, window, cov_scale, seed):
        rng = np.random.default_rng(seed)
        layout = TC if mode == "tc" else LC
        # window 4 moves its 5 slots to the front of its 10-slot buffers at
        # epochs 11, 17 and 23, window 1 every 3 epochs; batch grows its 8
        # slots to 32
        n_epochs = 23 if window == 4 else int(rng.integers(17, 22))
        epochs, _ = toy_epochs(
            n_epochs,
            pr_noise=rng.normal(scale=3.0, size=(n_epochs, 8)),
            fix_noise=rng.normal(scale=3.0, size=(n_epochs, 3)),
        )
        # the first epoch has the fewest rows the start-up solve takes, the
        # later ones 0 to 8 satellites and LC fixes that may be missing, and
        # one late epoch all 8: the padding widens at least once, and a
        # window slid past a wide slot stays wider than a scratch build
        counts = rng.integers(0, 9, size=n_epochs)
        counts[0], counts[-3] = 5, 8
        for k, e in enumerate(epochs):
            e.sats = e.sats[: counts[k]]
            if k > 1 and rng.random() < 0.3:
                e.fix_pos = e.fix_hdop = None
        history = batch_history(epochs, mode, layout)
        cfg = RunConfig(estimator=f"fgo-{mode}", window=window, cov_scale=cov_scale)
        slid, x_before = FactorWindow(cfg, layout), None
        compactions, widths = 0, set()
        for k in range(1, n_epochs + 1):
            start = slid._start
            assert build_window(slid, *history[k - 1]) is slid
            if slid._start < start:
                compactions += 1
            ref = scratch_window(history[:k], cfg, layout)
            assert_same_window(slid, ref)
            if mode == "tc":
                widths.add(slid.slots["pr_w"].shape[1])
            x = ref.initial_values + rng.normal(scale=2.0, size=ref.total_dim)
            if x_before is not None and x_before.shape == x.shape:
                # priced before the slide, at the point linearized after it
                x = x_before
            assert_same_equations(slid.normal_equations(x), ref.normal_equations(x))
            assert slid.cost(x) == ref.cost(x)
            x_before = x.copy()
            slid.cost(x_before)
        if window == BATCH:
            assert len(slid._buf["dt"]) == 32
        else:
            assert compactions >= 3
        if mode == "tc":
            assert len(widths) > 1

    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from(["tc", "lc"]),
        window=st.sampled_from([1, 4, BATCH]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_pricing_per_point(self, mode, window, seed):
        rng = np.random.default_rng(seed)
        layout = TC if mode == "tc" else LC
        n_epochs = int(rng.integers(2, 9))
        epochs, _ = toy_epochs(n_epochs, pr_noise=rng.normal(scale=3.0, size=(n_epochs, 8)))
        history = batch_history(epochs, mode, layout)
        cfg = RunConfig(estimator=f"fgo-{mode}", window=window)
        w = scratch_window(history, cfg, layout)
        x = w.initial_values + rng.normal(scale=2.0, size=w.total_dim)
        fresh = scratch_window(history, cfg, layout).normal_equations(x)

        calls = []
        kernel = fgo.pseudorange_rows

        def counted(sat_pos, *args):
            calls.append(len(sat_pos))
            return kernel(sat_pos, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fgo, "pseudorange_rows", counted)
            # an equal point, not the same object, reuses the pricing
            cost = w.cost(x)
            assert_same_equations(w.normal_equations(x.copy()), fresh)
            assert fresh[2] == cost
            assert len(calls) == int(mode == "tc")
            # a point one ulp away is priced anew, and so is the first again
            y = x.copy()
            i = int(rng.integers(y.size))
            y[i] = np.nextafter(y[i], np.inf)
            w.cost(y)
            assert_same_equations(w.normal_equations(x), fresh)
            assert len(calls) == 3 * int(mode == "tc")
        # every pricing passes all n slots to the kernel
        assert calls == [w.n] * len(calls)
        # a point changed in place after its pricing is priced anew
        w.cost(y)
        y[i] = x[i]
        assert_same_equations(w.normal_equations(y), fresh)

    @settings(max_examples=30, deadline=None)
    @given(window=st.sampled_from([1, 4, BATCH]), seed=st.integers(0, 2**32 - 1))
    def test_pricing_that_raises_leaves_nothing_priced(self, window, seed):
        rng = np.random.default_rng(seed)
        n_epochs = int(rng.integers(2, 9))
        epochs, _ = toy_epochs(n_epochs, pr_noise=rng.normal(scale=3.0, size=(n_epochs, 8)))
        history = batch_history(epochs, "tc", TC)
        cfg = RunConfig(estimator="fgo-tc", window=window)
        start = scratch_window(history, cfg, TC)
        n, d = start.n, start.dim
        before = start.initial_values + rng.normal(scale=2.0, size=n * d)
        # moved from a drawn slot on: the failed pricing rewrites every edge
        # before its pseudoranges raise
        x = before.reshape(n, d).copy()
        x[int(rng.integers(n)) :] += rng.normal(scale=2.0, size=d)
        x = x.ravel()

        def raises(*args):
            raise GeometryError("pricing interrupted")

        # after the failed pricing, the point it failed at or the one before
        for point in (x, before):
            w = scratch_window(history, cfg, TC)
            w.cost(before)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fgo, "pseudorange_rows", raises)
                with pytest.raises(GeometryError):
                    w.cost(x)
            assert w.newest_residuals(x) is None
            fresh = scratch_window(history, cfg, TC)
            assert_same_equations(w.normal_equations(point), fresh.normal_equations(point))
            assert w.cost(point) == fresh.cost(point)

    @pytest.mark.parametrize("mode", ["tc", "lc"])
    @pytest.mark.parametrize("window", [1, 3, BATCH])
    def test_estimator_keeps_only_the_history_it_slides(self, mode, window):
        layout = TC if mode == "tc" else LC
        epochs, _ = toy_epochs(8)
        cfg = RunConfig(estimator=f"fgo-{mode}", window=window)
        est = FgoEstimator(cfg, layout)
        forces = record_forces(est)
        for k, e in enumerate(epochs, start=1):
            est.step(e)
            kept = k if window is BATCH else min(k, window + 1)
            assert list(est.window.slots["meas"]) == epochs[k - kept : k]
            assert est.window.slid == (k > kept)
        # the kept history rebuilds the estimator's own window, anchored at
        # the sliding prior once the first epoch has left it
        history = window_history(est.window, forces)
        ref = scratch_window(history, cfg, layout, slid=len(epochs) > kept)
        assert list(ref.slots["meas"]) == list(est.window.slots["meas"])
        assert ref.slid == est.window.slid
        assert np.array_equal(ref.prior_w, est.window.prior_w)
        x = ref.initial_values
        assert np.array_equal(ref.normal_equations(x)[0], est.window.normal_equations(x)[0])

    @pytest.mark.parametrize("mode", ["tc", "lc"])
    @pytest.mark.parametrize("window", [1, 3, BATCH])
    def test_bare_window_drops_and_switches_prior(self, mode, window):
        # a window alone, no estimator: it drops slot 0 once it holds W + 1
        # and pins slot 0 with the sliding prior exactly from that drop on
        layout = TC if mode == "tc" else LC
        n_epochs = 6 if window is BATCH else window + 2
        epochs, truth = toy_epochs(n_epochs)
        w = FactorWindow(RunConfig(estimator=f"fgo-{mode}", window=window), layout)
        sliding = default_process_noise(layout)
        sliding[0:3], sliding[3:6] = fgo.SLIDING_ANCHOR_VAR[mode]
        # the weights, whitening each prior variance
        priors = {False: 1.0 / np.sqrt(np.diag(initial_covariance(layout))), True: 1.0 / np.sqrt(sliding)}
        for k, (e, pos) in enumerate(zip(epochs, truth), start=1):
            state = layout.zeros()
            state[0:3] = pos
            w.push(e, state, np.zeros(3))
            kept = k if window is BATCH else min(k, window + 1)
            assert list(w.slots["meas"]) == epochs[k - kept : k]
            assert w.slid == (k > kept)
            assert np.array_equal(w.prior_w, priors[k > kept])
            assert np.array_equal(w.prior_value, w.slots["state"][0])
        assert w.slid == (window is not BATCH)

    @pytest.mark.parametrize("mode", ["tc", "lc"])
    @pytest.mark.parametrize(
        "slot, label", [(0, "prior"), (-1, "motion/ins/clock_walk")]
    )
    def test_nonfinite_state_names_its_factors(self, mode, slot, label):
        # slot 0 enters the prior first; any later slot only its edges
        layout = TC if mode == "tc" else LC
        epochs, _ = toy_epochs(4)
        cfg = RunConfig(estimator=f"fgo-{mode}", window=3)
        w = scratch_window(batch_history(epochs, mode, layout), cfg, layout)
        x = w.initial_values.reshape(w.n, w.dim).copy()
        w.cost(x.ravel())
        x[slot, 0] = np.nan
        with pytest.raises(EvaluationError, match=f"non-finite residual in {label} factors"):
            w.cost(x.ravel())
        assert w._kept_cost is None
        assert w.newest_residuals(x.ravel()) is None

    def test_lc_window_never_prices_pseudoranges(self, monkeypatch):
        epochs, _ = toy_epochs(4)
        cfg = RunConfig(estimator="fgo-lc", window=2)
        est = FgoEstimator(cfg, LC)
        forces = record_forces(est)
        for e in epochs:
            est.step(e)

        def no_rows(*args):
            raise AssertionError("pseudorange kernel called on a window without rows")

        monkeypatch.setattr("gnssins.fgo.pseudorange_rows", no_rows)
        window = scratch_window(window_history(est.window, forces), cfg, LC, slid=True)
        window.normal_equations(window.initial_values)
        window.cost(window.initial_values)


class TestFgoEstimator:
    def test_noise_free_convergence_tc(self):
        epochs, truth = toy_epochs(12)
        est = FgoEstimator(RunConfig(estimator="fgo-tc", window=5), TC)
        errs = [np.linalg.norm(est.step(e).state[0:3] - t) for e, t in zip(epochs, truth)]
        assert errs[-1] < 1e-3
        assert max(errs[10:]) < 1e-3  # converged after startup

    def test_noise_free_convergence_lc(self):
        # LC velocity is observed only through fix differences, so the
        # window must span enough epochs to dominate the sliding prior
        epochs, truth = toy_epochs(20)
        est = FgoEstimator(RunConfig(estimator="fgo-lc", window=30), LC)
        errs = [np.linalg.norm(est.step(e).state[0:3] - t) for e, t in zip(epochs, truth)]
        assert errs[-1] < 1e-3

    def test_window_one_matches_batch_on_clean_data(self):
        # once the startup transient decays there are no outliers to
        # distinguish the windows, so both solve the same consistent problem
        epochs, _ = toy_epochs(100)
        est1 = FgoEstimator(RunConfig(estimator="fgo-tc", window=1), TC)
        est2 = FgoEstimator(RunConfig(estimator="fgo-tc", window=BATCH), TC)
        for e in epochs:
            s1 = est1.step(e).state
            s2 = est2.step(e).state
        assert np.linalg.norm(s1[0:3] - s2[0:3]) < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        noise = rng.normal(scale=2.0, size=(10, 8))
        epochs1, _ = toy_epochs(10, pr_noise=noise)
        epochs2, _ = toy_epochs(10, pr_noise=noise)
        est1 = FgoEstimator(RunConfig(estimator="fgo-tc", window=3), TC)
        est2 = FgoEstimator(RunConfig(estimator="fgo-tc", window=3), TC)
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
            est = FgoEstimator(RunConfig(estimator="fgo-tc", window=4, cov_scale=scale), TC)
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
            est = FgoEstimator(RunConfig(estimator="fgo-tc", window=3), TC)
            for e in epochs:
                result = est.step(e)
            finals.append(result.state[0:3])
        assert np.linalg.norm(finals[0] - finals[1]) < 1e-4

    def test_solver_error_names_the_epoch(self, monkeypatch):
        epochs, _ = toy_epochs(3)
        est = FgoEstimator(RunConfig(estimator="fgo-tc", window=2), TC)
        est.step(epochs[0])
        est.step(epochs[1])

        def singular(problem, cfg):
            raise SolverError("normal equations singular up to lambda=1e+10")

        monkeypatch.setattr(fgo, "solve_lm", singular)
        with pytest.raises(SolverError, match=r"^epoch at t=2.0: normal equations singular") as info:
            est.step(epochs[2])
        assert isinstance(info.value.__cause__, SolverError)

    def test_epochs_must_increase(self):
        epochs, _ = toy_epochs(2)
        est = FgoEstimator(RunConfig(estimator="fgo-tc", window=1), TC)
        est.step(epochs[0])
        est.step(epochs[1])
        with pytest.raises(ValueError):
            est.step(epochs[1])


@pytest.fixture(scope="module", params=[99, 31], ids=lambda seed: f"seed{seed}")
def seeded_canyon(request):
    """The default canyon, with its LC fixes, at the headline and a held-out seed."""
    ds = simulate(default_canyon_config(request.param))
    generate_lc_fixes(ds.epochs)
    return ds


class TestWarmWindowSolves:
    """Every window solve starts one INS step from its last solution, under
    ``RunConfig().lm``, whose initial damping is below ``gtol``."""

    @pytest.mark.parametrize("window", [1, 30, BATCH])
    def test_every_window_ends_at_its_minimum(self, seeded_canyon, window):
        # the oracle solves the same window again from where the step left
        # it, with damping and stop tests far tighter than any default
        tight = LmConfig(lambda0=1e-12, tol=0.0, gtol=1e-13)
        est = FgoEstimator(RunConfig(estimator="fgo-tc", window=window), TC)
        for meas in seeded_canyon.epochs:
            if est.step(meas).message == "initialized":
                continue
            states = est.window.slots["state"]
            again = SimpleNamespace(
                initial_values=states.flatten(),
                normal_equations=est.window.normal_equations,
                cost=est.window.cost,
            )
            polished = solve_lm(again, tight).values.reshape(states.shape)
            gap = np.linalg.norm(polished[:, POS] - states[:, POS], axis=1).max()
            assert gap <= 1e-4, f"epoch at t={meas.t}: {gap:.3g} m from its window's minimum"

    @pytest.mark.parametrize("window", [30, BATCH])
    def test_a_linear_window_takes_one_linearization(self, seeded_canyon, window):
        # an LC window is linear, so one step from the warm start passes the
        # gradient test; the first solve after start-up starts further away
        records = run_estimator(seeded_canyon, RunConfig(estimator="fgo-lc", window=window)).records
        slow = [(r.epoch, r.iterations) for r in records[2:] if r.iterations > 1 or not r.converged]
        assert slow == []
