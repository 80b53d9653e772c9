import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gnssins.canyon_sim import (
    CSV_FLOAT,
    config_to_dict,
    generate_lc_fixes,
    noise_free_config,
    read_csv,
    read_dataset,
)
from gnssins.cli import main
from gnssins.harness import TC_LAYOUT, RunConfig, run_estimator
from gnssins.residual_analysis import pseudorange_residuals


# the noise-free preset's two waypoints, as sim_config.json writes them
ROUTE = config_to_dict(noise_free_config())["waypoints"]


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

    @pytest.mark.parametrize(
        "edit",
        [
            {"nlos_recieve_prob": 0.5},
            {"waypoints": None},
            {"duration_s": "60"},
            {"n_satellites": "14"},
            {"n_satellites": True},
            # a string inside a nested value: the first four once ended in a
            # TypeError traceback inside simulate, the last simulated
            {"deep_intervals": [[1, 2, "x"]]},
            {"canyon_sectors": [[25.0, "a", 62.0]]},
            {"clock_models": {"GPS": {"bias_m": "1", "drift_mps": 0}}},
            {"snr_los": {"mean": "48", "sigma": 2}},
            {"nlos_model": {"GPS": [[0.5, "1.5", 3.0]]}},
            list,  # the whole scenario inside a JSON list
            # a model for each simulated constellation, and no other: the first
            # once ended in a KeyError traceback inside simulate, the second
            # wrote a clk_Galileo column, and the noise-free preset simulated
            # the bad mixtures (it draws no NLOS bias)
            {"clock_models": {"GPS": {"bias_m": 120.0, "drift_mps": 0.0}}},
            {
                "clock_models": dict.fromkeys(
                    ("GPS", "BeiDou", "Galileo"), {"bias_m": 1.0, "drift_mps": 0.0}
                )
            },
            {"nlos_model": {"GPS": [[1.0, 5.0, 2.0]]}},
            {"nlos_model": {"GPS": [], "BeiDou": [[1, 5, 2]]}},
            {"nlos_model": {"GPS": [[-0.5, 1.0, 1.0], [1.0, 5.0, 2.0]], "BeiDou": [[1, 5, 2]]}},
            {"nlos_model": {"GPS": [[0.0, 1.0, 1.0]], "BeiDou": [[1, 5, 2]]}},
            {"nlos_model": {"GPS": [[1.0, 1.0, -1.0]], "BeiDou": [[1, 5, 2]]}},
            # a sector whose ends are equal modulo 360 masked one azimuth, and
            # an interval that does not end after it starts blocked nothing
            {"canyon_sectors": [[0, 360, 62]]},
            {"canyon_sectors": [[-10, 350, 62]]},
            {"deep_intervals": [[50, 50, 60]]},
            {"deep_intervals": [[60, 40, 60]]},
            # every number is finite: an object in a sector once ended in a
            # TypeError traceback, a NaN open-sky mask simulated no
            # observation, and a NaN speed was simulated
            {"canyon_sectors": [[{"a": 1}, 30, 40]]},
            {"open_sky_min_elevation_deg": math.nan},
            {
                "waypoints": [
                    {"lat_deg": 22.32, "lon_deg": 114.17, "speed_mps": 8.0},
                    {"lat_deg": 22.33, "lon_deg": 114.17, "speed_mps": math.nan},
                ]
            },
            # a route back to its start, whose corner blends at this max_accel
            # outrun its legs, and a run with more IMU samples than numpy can
            # index: errors inside simulate that named neither key
            {"max_accel": 0.001, "waypoints": [*ROUTE, ROUTE[0]]},
            {"duration_s": 1e308},
        ],
    )
    def test_bad_scenario_keys_exit_1(self, tmp_path, capsys, edit):
        cfg = config_to_dict(noise_free_config())
        if edit is list:
            cfg = [cfg]
        else:
            cfg = {k: v for k, v in {**cfg, **edit}.items() if v is not None}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        if edit is not list:
            assert next(iter(edit)) in err

    def test_run_too_large_to_allocate_exits_1(self, tmp_path, capsys):
        # 1e15 epochs pass every scenario check, and numpy cannot allocate
        # them: once a 16-line MemoryError traceback
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config_to_dict(noise_free_config()), "duration_s": 1e15}))
        assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_invalid_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        cfg = config_to_dict(noise_free_config())
        cfg["duration_s"] = 0.0
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert code == 1

    def test_out_of_range_scenario_value_exits_1(self, tmp_path, capsys):
        # once a ZeroDivisionError traceback from the trajectory builder
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config_to_dict(noise_free_config()), "max_accel": 0}))
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [err.splitlines()[-1]]
        assert err.startswith("error:") and "max_accel" in err

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert run_cli("simulate", "--preset", "noise-free", "--seed", seed, "--out", str(out)) == 2
        assert_usage_error(capsys.readouterr().err, "--seed")
        assert not out.exists()


def set_cell(column, cell):
    """An edit of a CSV's lines that puts ``cell`` in ``column`` of the first row."""

    def edit(lines):
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = cell
        return [lines[0], ",".join(row), *lines[2:]]

    return edit


def assert_usage_error(err, option):
    """argparse's usage error, one ``error:`` line naming ``option``, last."""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert option in err.splitlines()[-1]


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

    def test_epochs_csv_carries_solver_diagnostics(self, dataset_dir, tmp_path):
        out = tmp_path / "diag"
        run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "fgo-tc",
            "--window", "5", "--out", str(out),
        )
        rows = np.genfromtxt(
            out / "epochs.csv", delimiter=",", names=True, dtype=None, encoding="utf-8"
        )
        summary = json.loads((out / "summary.json").read_text())
        # the first epoch only initializes: no solve, so no cost
        assert rows["message"][0] == "initialized" and np.isnan(rows["cost"][0])
        assert all(rows["message"][1:])
        assert np.all(rows["iterations"] >= 0) and np.all(np.isfinite(rows["cost"][1:]))
        assert summary["unconverged_epochs"] == int(np.sum(rows["converged"] == 0)) == 0
        iterations = float(np.mean(rows["iterations"]))
        assert summary["lm_iterations_per_epoch"] == pytest.approx(iterations, abs=1e-12)
        assert summary["lm_iterations_per_epoch"] > 0

    def test_summary_matches_epochs_csv(self, dataset_dir, tmp_path):
        out = tmp_path / "run2"
        run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "ekf-tc", "--out", str(out)
        )
        rows = np.genfromtxt(out / "epochs.csv", delimiter=",", names=True)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_err_m"] == pytest.approx(float(np.mean(rows["err_2d_m"])), abs=1e-9)
        assert summary["std_err_m"] == pytest.approx(float(np.std(rows["err_2d_m"])), abs=1e-9)
        assert summary["lm_iterations_per_epoch"] == 0.0

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

    @pytest.mark.parametrize(
        "name, column, edit",
        [
            pytest.param("truth.csv", None, lambda lines: lines[:1], id="truth.csv-None"),
            pytest.param("truth.csv", "x", set_cell("x", "abc"), id="truth.csv-x"),
            pytest.param("imu.csv", "fy", set_cell("fy", "abc"), id="imu.csv-fy"),
            pytest.param(
                "gnss.csv", "sat_x", lambda lines: [lines[0].replace("sat_x", "sat_q"), *lines[1:]],
                id="gnss.csv-renamed-sat_x",
            ),
            pytest.param(
                "gnss.csv", "pseudorange_m", set_cell("pseudorange_m", "abc"),
                id="gnss.csv-pseudorange_m",
            ),
            pytest.param(
                "gnss.csv", "constellation", set_cell("constellation", "Galileo"),
                id="gnss.csv-constellation",
            ),
            pytest.param("gnss.csv", "nlos", set_cell("nlos", "2"), id="gnss.csv-nlos"),
            pytest.param(
                "gnss.csv", "pseudorange_m", set_cell("pseudorange_m", "nan"),
                id="gnss.csv-pseudorange_m-nan",
            ),
            pytest.param("gnss.csv", "snr_dbhz", set_cell("snr_dbhz", "inf"), id="gnss.csv-snr_dbhz-inf"),
            pytest.param("gnss.csv", None, lambda lines: [], id="gnss.csv-empty"),
            pytest.param("truth.csv", None, lambda lines: [], id="truth.csv-empty"),
            pytest.param(
                "imu.csv", None, lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]],
                id="imu.csv-short-row",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_unreadable_dataset_exits_1(self, dataset_dir, tmp_path, capsys, name, column, edit):
        # once: a truth.csv without rows, an empty file (after a numpy warning)
        # or a renamed gnss.csv column ended in a traceback; a text cell in
        # truth.csv and nlos 2 ran; a text cell in gnss.csv, an unknown
        # constellation and a short row gave an error that named no file
        ds = tmp_path / "ds"
        ds.mkdir()
        for f in ("truth.csv", "imu.csv", "gnss.csv"):
            (ds / f).write_bytes((dataset_dir / f).read_bytes())
        lines = edit((ds / name).read_text().splitlines())
        (ds / name).write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", str(ds), "--estimator", "fgo-tc", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and name in err
        assert column is None or repr(column) in err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["fgo-tc", "ekf-tc"])
    def test_residuals_csv_holds_every_observation(self, dataset_dir, tmp_path, estimator):
        # three epochs without satellites, which add no rows
        ds_dir = tmp_path / "ds"
        ds_dir.mkdir()
        for f in ("truth.csv", "imu.csv", "gnss.csv"):
            (ds_dir / f).write_bytes((dataset_dir / f).read_bytes())
        lines = (ds_dir / "gnss.csv").read_text().splitlines()
        emptied = sorted({line.split(",")[0] for line in lines[1:]}, key=float)[3:6]
        kept = [line for line in lines if line.split(",")[0] not in emptied]
        (ds_dir / "gnss.csv").write_text("".join(line + "\n" for line in kept))
        out = tmp_path / "run"
        code = run_cli(
            "run", "--dataset", str(ds_dir), "--estimator", estimator,
            "--window", "5", "--out", str(out),
        )
        assert code == 0
        rows, gnss = read_csv(out / "residuals.csv"), read_csv(ds_dir / "gnss.csv")
        # each gnss.csv observation once, in the file's order
        for column, source in (("epoch", "t"), ("sat_id",) * 2, ("constellation",) * 2, ("nlos",) * 2):
            assert rows[column].tolist() == gnss[source].tolist()
        # at the state of each epoch's record, which epochs.csv holds
        ds = read_dataset(ds_dir)
        generate_lc_fixes(ds.epochs)
        records = run_estimator(ds, RunConfig(estimator=estimator, window=5)).records
        est_x = read_csv(out / "epochs.csv")["est_x"].tolist()
        assert est_x == [CSV_FLOAT % float(r.state[0]) for r in records]
        assert rows["residual_m"].tolist() == [
            CSV_FLOAT % value
            for meas, r in zip(ds.epochs, records)
            for value in pseudorange_residuals(meas.sats, r.state, TC_LAYOUT).tolist()
        ]
        assert sum(not meas.sats for meas in ds.epochs) == 3

    def test_lc_run_replaces_earlier_residuals(self, dataset_dir, tmp_path):
        # once, an LC run wrote no residuals.csv, so a directory reused after
        # a TC run kept that run's rows
        out, header = tmp_path / "run", "epoch,sat_id,constellation,residual_m,nlos\n"
        gnss_lines = (dataset_dir / "gnss.csv").read_text().count("\n")
        for estimator, lines in (("fgo-tc", gnss_lines), ("ekf-lc", 1)):
            code = run_cli(
                "run", "--dataset", str(dataset_dir), "--estimator", estimator, "--out", str(out)
            )
            assert code == 0
            text = (out / "residuals.csv").read_text()
            assert text.startswith(header) and text.count("\n") == lines

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
        # the keys of summary.json and compare.json
        keys = ["estimator", "window", "mean_err_m", "std_err_m", "total_time_s", "epochs",
                "unconverged_epochs", "lm_iterations_per_epoch"]
        assert all(list(r) == keys and r["estimator"] == "fgo-tc" for r in rows)

    @pytest.mark.parametrize("sizes", ["0", "-3", "abc", "1,,5"])
    def test_bad_sweep_sizes_are_usage_errors(self, dataset_dir, tmp_path, capsys, sizes):
        # like `run --window 0`: argparse rejects the size before any run
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--dataset", str(dataset_dir), "--sizes", sizes, "--out", str(out))
        assert code == 2
        assert_usage_error(capsys.readouterr().err, "--sizes")
        assert not list(tmp_path.rglob("sweep.*"))

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

    @pytest.mark.parametrize("k", ["0", "-2", "two"])
    def test_bad_component_count_is_usage_error(self, dataset_dir, tmp_path, capsys, k):
        out = tmp_path / "gmm"
        code = run_cli(
            "fit-gmm", "--csv", str(dataset_dir / "gnss.csv"), "--column", "range_error_m",
            "-k", k, "--out", str(out),
        )
        assert code == 2
        assert_usage_error(capsys.readouterr().err, "-k")
        assert not out.exists()

    def test_fit_gmm_epoch_filter(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "fgo-tc",
            "--window", "5", "--out", str(run_dir),
        ) == 0
        sweep_dir = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--dataset", str(dataset_dir), "--sizes", "1", "--out", str(sweep_dir)
        ) == 0
        # a run's residuals.csv keys its rows by "epoch", a dataset's gnss.csv by "t"
        for csv, column, key in [
            (run_dir / "residuals.csv", "residual_m", "epoch"),
            (dataset_dir / "gnss.csv", "range_error_m", "t"),
        ]:
            table = np.genfromtxt(csv, delimiter=",", names=True)
            values, epochs = table[column], table[key]
            for lo, hi in [(5.0, 15.0), (None, 9.0), (12.0, None)]:
                out = tmp_path / f"gmm_{key}_{lo}_{hi}"
                argv = ["fit-gmm", "--csv", str(csv), "--column", column, "-k", "1", "--out", str(out)]
                kept = np.isfinite(values)
                if lo is not None:
                    argv += ["--epoch-min", str(lo)]
                    kept &= epochs >= lo
                if hi is not None:
                    argv += ["--epoch-max", str(hi)]
                    kept &= epochs <= hi
                assert run_cli(*argv) == 0
                samples = json.loads((out / "gmm.json").read_text())["samples"]
                assert 0 < samples == int(kept.sum()) < np.isfinite(values).sum()
        # sweep.csv has neither column to filter by
        code = run_cli(
            "fit-gmm", "--csv", str(sweep_dir / "sweep.csv"), "--column", "mean_err_m",
            "--epoch-min", "1",
        )
        assert code == 2

    @pytest.mark.parametrize("column", ["sat_id", "constellation"])
    def test_fit_gmm_text_column_is_usage_error(self, dataset_dir, capsys, column):
        # once read as all NaN: "need at least 3 distinct samples, got 0", exit 1
        code = run_cli("fit-gmm", "--csv", str(dataset_dir / "gnss.csv"), "--column", column)
        assert code == 2
        assert_usage_error(capsys.readouterr().err, column)

    @pytest.mark.filterwarnings("error")
    def test_fit_gmm_empty_file_exits_1(self, tmp_path, capsys):
        # once a numpy warning, then an IndexError traceback
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("fit-gmm", "--csv", str(empty)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "empty.csv" in err

    def test_fit_gmm_missing_column(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run_gmm2"
        run_cli(
            "run", "--dataset", str(dataset_dir), "--estimator", "ekf-tc", "--out", str(run_dir)
        )
        code = run_cli("fit-gmm", "--csv", str(run_dir / "residuals.csv"), "--column", "nope")
        assert code == 2


def test_usage_error_exit_code():
    assert run_cli("run", "--estimator", "fgo-tc") == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
