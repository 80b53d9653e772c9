import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gnssins.canyon_sim import config_to_dict, noise_free_config
from gnssins.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = replace(noise_free_config(duration_s=25.0), los_sigma_m=0.5, seed=21)
    cfg_path = out / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(config_to_dict(cfg), fh)
    code = run_cli("simulate", "--config", str(cfg_path), "--out", str(out / "data"))
    assert code == 0
    return out / "data"


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestSimulate:
    def test_writes_three_files(self, dataset_dir):
        for name in ("truth.csv", "imu.csv", "gnss.csv"):
            assert (dataset_dir / name).exists()

    def test_gnss_rows_count(self, dataset_dir):
        truth_rows = sum(1 for _ in open(dataset_dir / "truth.csv")) - 1
        assert truth_rows == 25

    def test_seed_repeat_identical_hashes(self, tmp_path):
        for sub in ("a", "b"):
            code = run_cli(
                "simulate", "--preset", "noise-free", "--seed", "5", "--out", str(tmp_path / sub)
            )
            assert code == 0
        for name in ("truth.csv", "imu.csv", "gnss.csv"):
            assert file_hash(tmp_path / "a" / name) == file_hash(tmp_path / "b" / name)

    def test_written_config_reproduces_dataset(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--out", str(a)) == 0
        assert run_cli("simulate", "--config", str(a / "sim_config.json"), "--out", str(b)) == 0
        # the degrees round trip of the waypoints moves the truth by ~1e-11 m,
        # which can flip last printed digits, so values are compared numerically
        ga, gb = (
            np.loadtxt(d / "gnss.csv", delimiter=",", dtype=str, ndmin=2) for d in (a, b)
        )
        assert ga.shape == gb.shape
        text_cols = [list(ga[0]).index(c) for c in ("t", "sat_id", "constellation", "nlos")]
        assert np.array_equal(ga[:, text_cols], gb[:, text_cols])
        num_cols = [i for i in range(ga.shape[1]) if i not in text_cols]
        assert np.abs(ga[1:, num_cols].astype(float) - gb[1:, num_cols].astype(float)).max() <= 1e-6
        for name in ("truth.csv", "imu.csv"):
            ta, tb = (np.genfromtxt(d / name, delimiter=",", skip_header=1) for d in (a, b))
            assert ta.shape == tb.shape
            assert np.abs(ta - tb).max() <= 1e-6

    @pytest.mark.parametrize("edit", [{"nlos_recieve_prob": 0.5}, {"waypoints": None}])
    def test_bad_scenario_keys_exit_1(self, tmp_path, edit):
        cfg = {**config_to_dict(noise_free_config()), **edit}
        cfg = {k: v for k, v in cfg.items() if v is not None}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "out")) == 1

    def test_invalid_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        cfg = config_to_dict(noise_free_config())
        cfg["duration_s"] = 0.0
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert code == 1


class TestRun:
    def test_run_outputs(self, dataset_dir, tmp_path):
        code = run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "fgo-tc",
            "--window", "5", "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert (tmp_path / "run" / "epochs.csv").exists()
        assert (tmp_path / "run" / "residuals.csv").exists()
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["estimator"] == "fgo-tc"
        assert summary["epochs"] == 25
        assert summary["mean_err_m"] < 1.0

    def test_summary_matches_epochs_csv(self, dataset_dir, tmp_path):
        out = tmp_path / "run2"
        run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "ekf-tc", "--out", str(out)
        )
        rows = np.genfromtxt(out / "epochs.csv", delimiter=",", names=True)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_err_m"] == pytest.approx(float(np.mean(rows["err_2d_m"])), abs=1e-9)
        assert summary["std_err_m"] == pytest.approx(float(np.std(rows["err_2d_m"])), abs=1e-9)

    def test_run_deterministic_estimates(self, dataset_dir, tmp_path):
        cols = None
        for sub in ("r1", "r2"):
            run_cli(
                "run", "--dataset", str(dataset_dir), "--estimator", "fgo-lc",
                "--window", "5", "--out", str(tmp_path / sub),
            )
        r1 = np.genfromtxt(tmp_path / "r1" / "epochs.csv", delimiter=",", names=True)
        r2 = np.genfromtxt(tmp_path / "r2" / "epochs.csv", delimiter=",", names=True)
        for col in ("est_x", "est_y", "est_z", "err_2d_m", "residual_m"):
            assert np.array_equal(r1[col], r2[col])

    def test_batch_window(self, dataset_dir, tmp_path):
        code = run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "fgo-tc",
            "--window", "batch", "--out", str(tmp_path / "batch"),
        )
        assert code == 0


class TestCompareSweepGmm:
    def test_compare_table(self, dataset_dir, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--dataset", str(dataset_dir), "--estimators", "ekf-tc,fgo-tc",
            "--window", "5", "--out", str(out),
        )
        assert code == 0
        rows = json.loads((out / "compare.json").read_text())
        assert [r["estimator"] for r in rows] == ["ekf-tc", "fgo-tc"]

    def test_compare_unknown_estimator(self, dataset_dir, tmp_path):
        code = run_cli(
            "compare", "--dataset", str(dataset_dir), "--estimators", "ukf-tc",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_sweep_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--dataset", str(dataset_dir), "--sizes", "1,5,batch", "--out", str(out)
        )
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [r["window"] for r in rows] == [1, 5, "batch"]

    def test_fit_gmm_on_residuals(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run_gmm"
        run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "fgo-tc",
            "--window", "5", "--out", str(run_dir),
        )
        out = tmp_path / "gmm"
        code = run_cli(
            "fit-gmm", "--csv", str(run_dir / "residuals.csv"), "--column", "residual_m",
            "-k", "2", "--out", str(out),
        )
        assert code == 0
        model = json.loads((out / "gmm.json").read_text())
        assert len(model["components"]) == 2
        weights = sum(c["weight"] for c in model["components"])
        assert weights == pytest.approx(1.0, abs=1e-9)

    def test_fit_gmm_missing_column(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run_gmm2"
        run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "ekf-tc", "--out", str(run_dir)
        )
        code = run_cli("fit-gmm", "--csv", str(run_dir / "residuals.csv"), "--column", "nope")
        assert code == 2


def test_usage_error_exit_code():
    assert run_cli("run", "--estimator", "fgo-tc") == 2
    assert run_cli() == 2 if False else True  # argparse requires a subcommand


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
