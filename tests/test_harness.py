import numpy as np
import pytest

from gnssins.canyon_sim import generate_lc_fixes, noise_free_config, simulate
from gnssins.harness import ESTIMATORS, RunConfig, compare, run_estimator, sweep_windows


@pytest.fixture(scope="module")
def noise_free_ds():
    ds = simulate(noise_free_config(duration_s=30.0))
    generate_lc_fixes(ds.epochs)
    return ds


class TestRunEstimator:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_noise_free_accuracy(self, noise_free_ds, estimator):
        result = run_estimator(noise_free_ds, RunConfig(estimator=estimator, window=10))
        assert result.summary["mean_err"] < 0.01

    def test_records_shape(self, noise_free_ds):
        result = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        assert len(result.records) == noise_free_ds.n_epochs
        assert all(r.err_2d >= 0 for r in result.records)
        assert result.obs_residuals  # TC runs emit per-observation residuals

    def test_lc_runs_have_no_obs_residuals(self, noise_free_ds):
        result = run_estimator(noise_free_ds, RunConfig(estimator="ekf-lc"))
        assert result.obs_residuals == []

    def test_deterministic_estimates(self, noise_free_ds):
        r1 = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        r2 = run_estimator(noise_free_ds, RunConfig(estimator="fgo-tc", window=5))
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.est_pos, b.est_pos)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(estimator="ukf-tc")


def test_compare_runs_all(noise_free_ds):
    out = compare(noise_free_ds, ("ekf-lc", "fgo-tc"), RunConfig(window=5))
    assert set(out) == {"ekf-lc", "fgo-tc"}
    for result in out.values():
        assert result.summary["mean_err"] < 0.01


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
    # outlier-free data: window size is irrelevant beyond the startup
    assert abs(rows[1]["mean_err"] - rows[2]["mean_err"]) < 1e-3
