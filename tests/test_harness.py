import copy
import gc
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_epochs
from gnssins import ekf, fgo, harness, residual_analysis
from gnssins.canyon_sim import (
    default_canyon_config,
    generate_lc_fixes,
    noise_free_config,
    simulate,
)
from gnssins.fgo import FgoEstimator, fix_hdop
from gnssins.harness import (
    ESTIMATORS,
    RunConfig,
    _EkfRunner,
    TC_LAYOUT,
    compare,
    make_stepper,
    run_estimator,
    sweep_windows,
)
from gnssins.residual_analysis import EpochRecord, pseudorange_residuals, summarize, tc_residual
from gnssins.noise_models import (
    WeightingParams,
    compute_hdop,
    pseudorange_jacobian,
    pseudorange_rows,
    stack_pseudoranges,
    transition_jacobian,
)
from gnssins.nls_solver import LmConfig, solve_lm
from gnssins.types import POS, VEL, Constellation, StateLayout, StepResult


@pytest.fixture(scope="module")
def noise_free_ds():
    ds = simulate(noise_free_config(duration_s=30.0))
    generate_lc_fixes(ds.epochs)
    return ds


@pytest.fixture(scope="module")
def noisy_ds():
    return simulate(replace(default_canyon_config(99), duration_s=40.0))


class TestRunEstimator:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_noise_free_accuracy(self, noise_free_ds, estimator):
        result = run_estimator(noise_free_ds, RunConfig(estimator=estimator, window=10))
        assert result.summary["mean_err_m"] < 0.01

    def test_records_shape(self, noise_free_ds):
        result = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        assert len(result.records) == noise_free_ds.n_epochs
        assert all(r.err_2d >= 0 for r in result.records)
        # TC records keep one residual per satellite
        for meas, r in zip(noise_free_ds.epochs, result.records):
            assert len(meas.sats) == len(r.residuals) > 0

    def test_lc_runs_have_no_obs_residuals(self, noise_free_ds):
        result = run_estimator(noise_free_ds, RunConfig(estimator="ekf-lc"))
        assert all(r.residuals is None for r in result.records)

    def test_deterministic_estimates(self, noise_free_ds):
        r1 = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        r2 = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.est_pos, b.est_pos)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_epochs_out_of_time_order_rejected(self, noise_free_ds, estimator):
        epochs = noise_free_ds.epochs[:10]
        repeated = replace(noise_free_ds, epochs=epochs[:5] + [epochs[4]] + epochs[5:])
        with pytest.raises(ValueError, match="strictly increasing time order"):
            run_estimator(repeated, RunConfig(estimator=estimator, window=10))

    @pytest.mark.parametrize("estimator", ["ekf-lc", "fgo-lc"])
    def test_fixes_without_hdop_weighted_from_geometry(self, estimator):
        ds = simulate(replace(default_canyon_config(99), duration_s=20.0))
        generate_lc_fixes(ds.epochs)
        with_hdop = run_estimator(ds, RunConfig(estimator=estimator))
        fixed = [e for e in ds.epochs if e.fix_available]
        assert fixed
        for e in fixed:
            e.fix_hdop = None
        result = run_estimator(ds, RunConfig(estimator=estimator))
        assert len(result.records) == ds.n_epochs
        for r in result.records:
            assert np.isfinite(r.est_pos).all() and np.isfinite(r.err_2d)
        # HDOP from the satellites at the predicted position is close to the
        # generator's own, so the run stays close to the one with HDOP
        assert abs(result.summary["mean_err_m"] - with_hdop.summary["mean_err_m"]) < 1.0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_no_cyclic_collection_inside_a_run(self, noise_free_ds, monkeypatch, enabled):
        # a run is timed with the collector off, as timeit times, and leaves
        # it as it found it, also when the run raises
        seen = []
        error_2d = residual_analysis.error_2d
        monkeypatch.setattr(
            residual_analysis, "error_2d", lambda *a: seen.append(gc.isenabled()) or error_2d(*a)
        )
        (gc.enable if enabled else gc.disable)()
        try:
            run_estimator(noise_free_ds, RunConfig(estimator="ekf-tc"))
            assert gc.isenabled() is enabled
            late = replace(noise_free_ds, epochs=noise_free_ds.epochs[::-1])
            with pytest.raises(ValueError):
                run_estimator(late, RunConfig(estimator="ekf-tc"))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert len(seen) > noise_free_ds.n_epochs and not any(seen)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(estimator="ukf-tc")

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_the_coupling_decides_the_layout(self, estimator):
        # a TC run carries a clock for every constellation, an LC run none;
        # derived, not a field, so it cannot disagree with the coupling
        layout = RunConfig(estimator=estimator).layout
        if estimator.endswith("-tc"):
            assert layout == TC_LAYOUT and layout.constellations == tuple(Constellation)
        else:
            assert layout == StateLayout() and not layout.has_clock
        assert "layout" not in {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_every_state_column_is_observed_or_moves_another(self, estimator, monkeypatch):
        # a column that no observation row reads and that moves no other
        # column through F keeps its prior: the data cannot estimate it
        cfg = RunConfig(estimator=estimator)
        layout = cfg.layout
        epoch = toy_epochs(1)[0][0]
        state = layout.zeros()
        state[POS] = epoch.fix_pos
        if cfg.coupling == "lc":
            rows = []
            monkeypatch.setattr(ekf, "_kalman_update", lambda b, h, *args: rows.append(h))
            ekf.update_lc(ekf.BeliefState(state, np.eye(layout.dim), layout), epoch.fix_pos, np.ones(3))
            (h,) = rows
        else:
            arrays = stack_pseudoranges(epoch.sats, layout.clock_index)
            _, unit = pseudorange_rows(*arrays, state)
            h = pseudorange_jacobian(unit, arrays[2], layout.dim)
        f = transition_jacobian(1.0, layout.dim)
        observed = (h != 0).any(axis=0)
        moves = ((f - np.eye(layout.dim)) != 0).any(axis=0)
        assert (observed | moves).all(), f"dead columns {np.flatnonzero(~(observed | moves))}"

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True, "1", None])
    @pytest.mark.parametrize("config", [RunConfig])
    def test_cov_scale_must_be_finite_and_positive(self, config, value):
        with pytest.raises(ValueError, match="cov_scale"):
            config(cov_scale=value)

    @pytest.mark.parametrize("window", [0, -1, 2.5, 30.0, True, "30"])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_window_must_be_at_least_one(self, estimator, window):
        with pytest.raises(ValueError, match="window"):
            RunConfig(estimator=estimator, window=window)

    @pytest.mark.parametrize("steps", [0, -3, 2.5, 100.0, True, "100"])
    def test_ekf_predict_steps_must_be_at_least_one(self, steps):
        with pytest.raises(ValueError, match=f"ekf_predict_steps.*{steps!r}"):
            RunConfig(estimator="ekf-lc", ekf_predict_steps=steps)

    @pytest.mark.parametrize("weighting", [None, {"T": 45.0}, LmConfig()])
    def test_weighting_must_be_weighting_params(self, weighting):
        # a None weighting was taken, and the run failed part-way
        with pytest.raises(ValueError, match="weighting"):
            RunConfig(weighting=weighting)

    def test_numpy_numbers_are_taken(self):
        cfg = RunConfig(window=np.int64(5), cov_scale=np.float64(2.0), ekf_predict_steps=np.int64(7))
        assert cfg == RunConfig(window=5, cov_scale=2.0, ekf_predict_steps=7)

    def test_every_window_solve_takes_the_lm_defaults(self):
        # no run setting changes the solver's: its warm damping is the default
        with pytest.raises(TypeError):
            RunConfig(lm=LmConfig())
        assert LmConfig().lambda0 == 1e-10

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_a_field_cannot_be_assigned(self, name):
        # an assignment would skip the checks, and a stepper built from the
        # config would read the changed coupling mid-run
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(RunConfig(estimator="ekf-lc", window=1), name))
        assert cfg == RunConfig()
        with pytest.raises(ValueError, match="window"):
            replace(cfg, window=0)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_stepping_directly_gives_the_records(noise_free_ds, estimator):
    # one step contract: the records are the stepper's StepResults, whatever
    # the family
    cfg = RunConfig(estimator=estimator, window=10)
    records = run_estimator(noise_free_ds, cfg).records
    stepper = make_stepper(cfg)
    for meas, record in zip(noise_free_ds.epochs, records):
        result = stepper.step(meas)
        assert isinstance(result, StepResult)
        # the stepper's state is the one the config decides
        assert result.state.shape == (cfg.layout.dim,)
        assert np.array_equal(result.state, record.state)
        assert np.array_equal(result.state[POS], record.est_pos)
        if cfg.coupling == "lc":
            assert record.residuals is None
        diagnostics = ("iterations", "converged", "message")
        assert [getattr(result, f) for f in diagnostics] == [getattr(record, f) for f in diagnostics]
        assert result.cost == record.cost or (math.isnan(result.cost) and math.isnan(record.cost))
        for t in (result.solve_time, record.solve_time):
            assert math.isfinite(t) and t >= 0.0


@settings(max_examples=12, deadline=None)
@given(
    estimator=st.sampled_from(["ekf-lc", "ekf-tc"]),
    scale=st.sampled_from([0.1, 10.0]),
    seed=st.integers(0, 2**16),
)
def test_filter_covariance_scales_with_cov_scale(estimator, scale, seed):
    # scaling the initial, process and measurement noise alike leaves the
    # gain unchanged: the same estimates, and every covariance scaled
    ds = simulate(replace(default_canyon_config(seed), duration_s=20.0))
    generate_lc_fixes(ds.epochs)
    base = _EkfRunner(RunConfig(estimator=estimator))
    scaled = _EkfRunner(RunConfig(estimator=estimator, cov_scale=scale))
    for meas in ds.epochs:
        a, b = base.step(meas), scaled.step(meas)
        assert np.max(np.abs(a.state[POS] - b.state[POS])) <= 1e-6
        want = scale * base.belief.cov
        assert np.linalg.norm(scaled.belief.cov - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("estimator", ["ekf-lc", "ekf-tc"])
def test_filter_process_noise_spans_each_epoch(estimator, monkeypatch):
    # at 2 Hz the sub-steps split half a second, not one; the noise is
    # accumulated once for the run's one epoch length
    ds = simulate(replace(default_canyon_config(99), duration_s=5.0, gnss_rate_hz=2.0))
    cfg = RunConfig(estimator=estimator, cov_scale=3.0)
    noises, accumulated = [], []
    predict, accumulate = harness.ekf.predict, harness.ekf.accumulated_process_noise

    def recorded(belief, accel, dt, noise):
        noises.append((dt, noise))
        return predict(belief, accel, dt, noise)

    def counted(*args):
        accumulated.append(args)
        return accumulate(*args)

    monkeypatch.setattr(harness.ekf, "predict", recorded)
    monkeypatch.setattr(harness.ekf, "accumulated_process_noise", counted)
    run_estimator(ds, cfg)
    want = accumulate(cfg.layout, 100, 0.5) * 3.0
    assert len(noises) == len(ds.epochs) - 1 and accumulated == [(cfg.layout, 100, 0.5)]
    for dt, noise in noises:
        assert dt == 0.5 and np.array_equal(noise, want)
    # the velocity noise integrates into position over 100 steps of 5 ms
    assert want[0, 0] / 3.0 == pytest.approx(9.185, abs=1e-3)
    assert want[0, 3] / 3.0 == pytest.approx(0.557, abs=1e-3)


class TestSolveDiagnostics:
    def test_fgo_records_carry_the_solve(self, noise_free_ds):
        result = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        first, rest = result.records[0], result.records[1:]
        assert (first.iterations, first.message) == (0, "initialized") and np.isnan(first.cost)
        assert all(r.converged and r.message and np.isfinite(r.cost) for r in rest)
        assert sum(r.iterations for r in rest) > 0
        assert result.summary["unconverged_epochs"] == 0

    def test_unconverged_epochs_are_counted(self, noise_free_ds, monkeypatch):
        # no stop test can pass, so every solve ends on its one iteration
        lm = LmConfig(max_iters=1, tol=0.0, gtol=0.0)
        monkeypatch.setattr(fgo, "solve_lm", lambda window: solve_lm(window, lm))
        result = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        unconverged = [r for r in result.records if not r.converged]
        assert unconverged
        assert all(r.message == "max iterations reached" for r in unconverged)
        assert result.summary["unconverged_epochs"] == len(unconverged)

    @pytest.mark.parametrize("estimator", ["ekf-lc", "ekf-tc"])
    def test_filter_records_report_no_iterations(self, noise_free_ds, estimator):
        result = run_estimator(noise_free_ds, RunConfig(estimator=estimator))
        for r in result.records:
            assert r.iterations == 0 and r.converged and np.isnan(r.cost)
        assert result.summary["unconverged_epochs"] == 0


def test_compare_runs_all(noise_free_ds):
    out = compare(noise_free_ds, ("ekf-lc", "fgo-tc"), RunConfig(window=5))
    assert set(out) == {"ekf-lc", "fgo-tc"}
    for result in out.values():
        assert result.summary["mean_err_m"] < 0.01


def test_compare_keeps_every_base_field(noise_free_ds):
    base = RunConfig(ekf_predict_steps=1)
    out = compare(noise_free_ds, ("ekf-lc",), base)
    direct = run_estimator(noise_free_ds, RunConfig(estimator="ekf-lc", ekf_predict_steps=1))
    assert len(out["ekf-lc"].records) == len(direct.records)
    for a, b in zip(out["ekf-lc"].records, direct.records):
        assert np.array_equal(a.est_pos, b.est_pos)


def test_sweep_windows_rows(noise_free_ds):
    rows = sweep_windows(noise_free_ds, [1, 5, None])
    assert [r["window"] for r in rows] == [1, 5, "batch"]
    for row, size in zip(rows, (1, 5, None)):
        run = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=size))
        assert row["mean_err_m"] == run.summary["mean_err_m"]
        assert row["epochs"] == noise_free_ds.n_epochs
    # outlier-free data: window size is irrelevant beyond the startup
    assert abs(rows[1]["mean_err_m"] - rows[2]["mean_err_m"]) < 1e-3
    with pytest.raises(ValueError):
        sweep_windows(noise_free_ds, [])


@pytest.mark.parametrize(
    "estimators", [("ekf-lc", "ekf-lc"), ("fgo-tc", "ekf-tc", "fgo-tc"), ["fgo-lc"] * 3]
)
def test_compare_rejects_a_repeated_estimator(estimators):
    # keyed by name, a second run of one estimator replaced the first
    with pytest.raises(ValueError, match=f"estimator {estimators[0]!r} requested twice"):
        compare(None, estimators)


def test_compare_rejects_no_estimators():
    # as sweep_windows rejects no sizes, rather than returning nothing
    with pytest.raises(ValueError, match="no estimators requested"):
        compare(None, [])


# the keys of every summary file's rows, in order
SUMMARY_KEYS = [
    "estimator", "window", "mean_err_m", "std_err_m", "total_time_s", "epochs",
    "unconverged_epochs", "lm_iterations_per_epoch",
]


@settings(max_examples=60, deadline=None)
@given(
    estimator=st.sampled_from(ESTIMATORS),
    window=st.none() | st.integers(1, 50),
    epochs=st.lists(
        st.tuples(
            st.floats(0.0, 1e3),
            st.floats(0.0, 1.0),
            st.integers(0, 20),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_a_runs_row_is_its_config_and_summary(estimator, window, epochs):
    cfg = RunConfig(estimator=estimator, window=window)
    records = [
        EpochRecord(
            state=cfg.layout.zeros(), solve_time=t, iterations=n, converged=ok, epoch=float(k),
            truth_pos=np.zeros(3), err_2d=e, residual=math.nan,
        )
        for k, (e, t, n, ok) in enumerate(epochs)
    ]
    summary = summarize(records)
    row = harness.RunResult(cfg, records, summary).row
    assert list(row) == SUMMARY_KEYS
    assert (row["estimator"], row["window"]) == (estimator, "batch" if window is None else window)
    assert type(row["window"]) is (str if window is None else int)
    assert {k: row[k] for k in summary} == summary
    assert row["epochs"] == len(epochs)
    assert row["unconverged_epochs"] == sum(not ok for *_, ok in epochs)


@settings(max_examples=30, deadline=None)
@given(
    coupling=st.sampled_from(["lc", "tc"]),
    seed=st.integers(0, 2**32 - 1),
    n_sats=st.integers(5, 8),
)
def test_families_share_the_first_state(coupling, seed, n_sats):
    # one start-up: the filter and the factor graph start from the same state
    # and seed its velocity alike from the second epoch
    rng = np.random.default_rng(seed)
    epochs, _ = toy_epochs(
        2,
        pr_noise=rng.normal(scale=3.0, size=(2, n_sats)),
        fix_noise=rng.normal(scale=3.0, size=(2, 3)),
        n_sats=n_sats,
    )
    runner = _EkfRunner(RunConfig(estimator=f"ekf-{coupling}"))
    est = FgoEstimator(RunConfig(estimator=f"fgo-{coupling}"))
    ekf_first = runner.step(epochs[0])
    fgo_first = est.step(epochs[0])
    assert isinstance(ekf_first, StepResult) and isinstance(fgo_first, StepResult)
    assert np.array_equal(ekf_first.state, fgo_first.state)
    # neither solves anything iteratively at start-up, and both say so alike
    for first in (ekf_first, fgo_first):
        assert (first.iterations, first.converged) == (0, True) and math.isnan(first.cost)
        assert first.message == "initialized"

    predicted_from = []
    predict = harness.ekf.predict

    def recorded(belief, *args):
        predicted_from.append(belief.mean.copy())
        return predict(belief, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.ekf, "predict", recorded)
        runner.step(epochs[1])
    est.step(epochs[1])
    # the filter predicts from the seeded first state, which the window's
    # anchor pins
    assert np.array_equal(predicted_from[0][VEL], est.window.prior_value[VEL])
    seeded = fgo.position_seed(epochs[1], est.cfg) is not None
    assert predicted_from[0][VEL].any() == seeded


def test_lc_run_leaves_a_dataset_without_fixes_untouched():
    # an LC run generates fixes with its own weighting into copies of the
    # epochs, so an earlier run with another weighting cannot change a later one
    cfg = replace(default_canyon_config(99), duration_s=60.0)
    fresh = run_estimator(simulate(cfg), RunConfig(estimator="ekf-lc"))
    ds = simulate(cfg)
    wide = WeightingParams(T=22.5)
    run_estimator(ds, RunConfig(estimator="ekf-lc", weighting=wide))
    assert not any(e.fix_available for e in ds.epochs)
    again = run_estimator(ds, RunConfig(estimator="ekf-lc"))
    assert [r.est_pos.tobytes() for r in again.records] == [
        r.est_pos.tobytes() for r in fresh.records
    ]
    # fixes the dataset already carries are used as they are, whatever the
    # run's own weighting
    generate_lc_fixes(ds.epochs, wide)
    carried = run_estimator(ds, RunConfig(estimator="ekf-lc"))
    own = run_estimator(simulate(cfg), RunConfig(estimator="ekf-lc", weighting=wide))
    assert [r.est_pos.tobytes() for r in carried.records] == [
        r.est_pos.tobytes() for r in own.records
    ]
    assert carried.summary["mean_err_m"] != fresh.summary["mean_err_m"]


def test_fix_hdop_prefers_the_epochs_own():
    epochs, truth = toy_epochs(1)
    meas = epochs[0]
    assert fix_hdop(meas, truth[0]) == meas.fix_hdop
    meas.fix_hdop = None
    assert fix_hdop(meas, truth[0]) == compute_hdop(meas.sats, truth[0])


def scored_tc_run(ds, window, monkeypatch):
    """A fgo-tc run with each step's result and the harness's own
    pseudorange evaluations recorded."""
    steps, evaluated = [], []
    step, evaluate = FgoEstimator.step, harness.pseudorange_residuals

    def recorded_step(self, meas):
        steps.append(step(self, meas))
        return steps[-1]

    def recorded_evaluate(sats, state, layout):
        evaluated.append(state)
        return evaluate(sats, state, layout)

    monkeypatch.setattr(FgoEstimator, "step", recorded_step)
    monkeypatch.setattr(harness, "pseudorange_residuals", recorded_evaluate)
    result = run_estimator(ds, RunConfig(estimator="fgo-tc", window=window))
    return result, steps, evaluated


def assert_scored_at_the_returned_state(ds, result, steps):
    """Every TC epoch's residual column and per-observation residuals equal
    the residuals evaluated afresh at the step's returned state, bit for bit."""
    for meas, record, step in zip(ds.epochs, result.records, steps):
        if not meas.sats:
            assert np.isnan(record.residual) and record.residuals is None
            continue
        raw = pseudorange_residuals(meas.sats, step.state, TC_LAYOUT)
        assert record.residual == tc_residual(raw)
        assert np.array_equal(record.residuals, raw)


@pytest.mark.parametrize("window", [1, 30, None])
@pytest.mark.parametrize("data", ["noise_free_ds", "noisy_ds"])
def test_fgo_tc_scores_the_window_residuals(request, monkeypatch, data, window):
    ds = request.getfixturevalue(data)
    result, steps, evaluated = scored_tc_run(ds, window, monkeypatch)
    assert_scored_at_the_returned_state(ds, result, steps)
    # the harness evaluates only the epochs whose step handed on no residuals:
    # the first, and those whose solve's last two pricings were rejected trials
    fallback = [s.state for m, s in zip(ds.epochs, steps) if m.sats and s.residuals is None]
    assert len(evaluated) == len(fallback)
    assert all(np.array_equal(a, b) for a, b in zip(evaluated, fallback))
    assert steps[0].residuals is None
    # solves that end on an accepted step hand on its pricing, and those that
    # end on one rejected trial (noise-free ones, of negligible size) the
    # pricing before it
    assert len(fallback) < len(steps)


@pytest.fixture(scope="module", params=[99, 31], ids=lambda seed: f"seed-{seed}")
def canyon_ds(request):
    return simulate(default_canyon_config(request.param))


@pytest.mark.parametrize("window", [1, 30, None], ids=["w1", "w30", "batch"])
def test_fgo_tc_prices_only_the_start_up_epoch_itself(canyon_ds, monkeypatch, window):
    # a window once handed on no residuals after a solve whose last pricing
    # was a rejected trial, and the harness priced the epoch again: 54, 44
    # and 15 times per run at window 1, 30 and in batch at seed 99, 35, 29
    # and 10 at seed 31
    result, steps, evaluated = scored_tc_run(canyon_ds, window, monkeypatch)
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], steps[0].state)
    assert all(s.residuals is not None for m, s in zip(canyon_ds.epochs[1:], steps[1:]) if m.sats)
    assert_scored_at_the_returned_state(canyon_ds, result, steps)


def test_rejected_last_trial_falls_back_to_evaluation(noisy_ds, monkeypatch):
    reference = run_estimator(noisy_ds, RunConfig(estimator="fgo-tc", window=30))
    solve = fgo.solve_lm

    def solve_then_reject(window):
        # price two trials away from the solution, as two rejected last
        # steps do: the window keeps no pricing at the solution
        report = solve(window)
        window.cost(report.values + 1.0)
        window.cost(report.values + 2.0)
        return report

    monkeypatch.setattr(fgo, "solve_lm", solve_then_reject)
    result, steps, evaluated = scored_tc_run(noisy_ds, 30, monkeypatch)
    assert all(s.residuals is None for s in steps)
    assert len(evaluated) == sum(1 for m in noisy_ds.epochs if m.sats)
    assert_scored_at_the_returned_state(noisy_ds, result, steps)
    for a, b in zip(result.records, reference.records):
        assert a.residual == b.residual or (np.isnan(a.residual) and np.isnan(b.residual))
        assert (a.residuals is None and b.residuals is None) or np.array_equal(a.residuals, b.residuals)


@pytest.mark.parametrize("window", [1, 30, None])
@pytest.mark.parametrize("estimator", ["ekf-tc", "fgo-tc"])
def test_epoch_without_satellites_records_no_residuals(noisy_ds, estimator, window):
    # an fgo-tc window once handed on an empty array for such an epoch when
    # its last pricing was at the returned state, and None otherwise
    epochs = [copy.copy(e) for e in noisy_ds.epochs]
    emptied = (3, 10, 11, 20, 30, 38)
    for k in emptied:
        epochs[k].sats = []
    ds = replace(noisy_ds, epochs=epochs)
    result = run_estimator(ds, RunConfig(estimator=estimator, window=window))
    for k, (meas, record) in enumerate(zip(epochs, result.records)):
        if k in emptied:
            assert record.residuals is None and np.isnan(record.residual)
        else:
            assert len(record.residuals) == len(meas.sats) > 0
