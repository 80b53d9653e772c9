"""Command-line surface: simulate, run, compare, sweep, fit-gmm.

All outputs are headered CSV (plus JSON summaries) so results diff cleanly
and plot with anything. Exit codes: 0 success, 1 runtime failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .canyon_sim import (
    Dataset,
    config_to_dict,
    default_canyon_config,
    generate_lc_fixes,
    load_config,
    noise_free_config,
    read_csv,
    read_dataset,
    simulate,
    table_column,
    write_csv,
    write_dataset,
)
from .harness import ESTIMATORS, RunConfig, RunResult, compare, run_estimator, sweep_windows
from .nls_solver import SolverError
from .residual_analysis import fit_gmm


def _parse_window(text: str) -> Optional[int]:
    if text.lower() == "batch":
        return None
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("window must be >= 1 or 'batch'")
    return value


def _int_at_least(low: int):
    """An argparse type: an integer no less than ``low``."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)

    return integer


def _parse_sizes(text: str) -> list[Optional[int]]:
    return [_parse_window(s.strip()) for s in text.split(",")]


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        cfg = load_config(Path(args.config))
    elif args.preset == "noise-free":
        cfg = noise_free_config()
    else:
        cfg = default_canyon_config()
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    ds = simulate(cfg)
    out = Path(args.out)
    write_dataset(ds, out)
    with open(out / "sim_config.json", "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
    n_obs = sum(len(e.sats) for e in ds.epochs)
    print(f"wrote {out}/truth.csv imu.csv gnss.csv")
    print(
        f"epochs: {ds.n_epochs}  observations: {n_obs}  "
        f"satellites/epoch: {ds.mean_sats_per_epoch():.1f}  "
        f"nlos fraction: {ds.nlos_fraction():.3f}"
    )
    return 0


def _write_epochs_csv(path: Path, result: RunResult) -> None:
    write_csv(
        path,
        (
            "epoch,est_x,est_y,est_z,truth_x,truth_y,truth_z,err_2d_m,residual_m,solve_time_s,"
            "iterations,cost,converged,message"
        ).split(","),
        (
            [float(v) for v in (r.epoch, *r.est_pos, *r.truth_pos, r.err_2d, r.residual, r.solve_time)]
            + [int(r.iterations), float(r.cost), int(r.converged), r.message]
            for r in result.records
        ),
    )


SUMMARY_COLUMNS = [
    "window", "mean_err_m", "std_err_m", "total_time_s", "lm_iterations_per_epoch",
]


def _summary_dict(estimator: str, window: Optional[int | str], summary: dict) -> dict:
    """A row of summary.json, compare.* and sweep.*: a run's summary, named with units."""
    return {
        "estimator": estimator,
        "window": "batch" if window is None else window,
        "mean_err_m": summary["mean_err"],
        "std_err_m": summary["std_err"],
        "total_time_s": summary["total_time"],
        "epochs": summary["epochs"],
        "unconverged_epochs": summary["unconverged"],
        "lm_iterations_per_epoch": summary["mean_iterations"],
    }


def _write_table(out: Path, name: str, columns: list[str], rows: list[dict]) -> None:
    """``<name>.csv`` with ``columns`` of the summary rows, ``<name>.json`` with all of them."""
    write_csv(out / f"{name}.csv", columns, ([r[c] for c in columns] for r in rows))
    with open(out / f"{name}.json", "w") as fh:
        json.dump(rows, fh, indent=2)


def _load_dataset(args: argparse.Namespace) -> Dataset:
    ds = read_dataset(Path(args.dataset))
    generate_lc_fixes(ds.epochs)
    return ds


def cmd_run(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    cfg = RunConfig(estimator=args.estimator, window=args.window)
    result = run_estimator(ds, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_epochs_csv(out / "epochs.csv", result)
    # one row per satellite of every epoch that has residuals, so only the
    # header for LC, which also replaces an earlier run's file
    rows = (
        [float(r.epoch), s.sat_id, s.constellation.value, value, int(bool(s.nlos_truth))]
        for meas, r in zip(ds.epochs, result.records)
        if r.residuals is not None
        for s, value in zip(meas.sats, r.residuals.tolist())
    )
    write_csv(out / "residuals.csv", "epoch,sat_id,constellation,residual_m,nlos".split(","), rows)
    with open(out / "summary.json", "w") as fh:
        json.dump(_summary_dict(result.estimator, cfg.window, result.summary), fh, indent=2)
    s = result.summary
    print(
        f"{args.estimator}: mean 2D error {s['mean_err']:.3f} m, "
        f"std {s['std_err']:.3f} m, solve time {s['total_time']:.3f} s"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    names = [n.strip() for n in args.estimators.split(",")] if args.estimators else list(ESTIMATORS)
    for n in names:
        if n not in ESTIMATORS:
            raise UsageError(f"unknown estimator {n!r}")
    results = compare(ds, names, RunConfig(window=args.window))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [_summary_dict(name, args.window, result.summary) for name, result in results.items()]
    for name, result in results.items():
        _write_epochs_csv(out / f"epochs_{name}.csv", result)
    _write_table(out, "compare", ["estimator", *SUMMARY_COLUMNS], rows)
    width = max(len(r["estimator"]) for r in rows)
    for r in rows:
        print(
            f"{r['estimator']:<{width}}  mean {r['mean_err_m']:8.3f} m  "
            f"std {r['std_err_m']:8.3f} m  time {r['total_time_s']:8.3f} s"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    rows = [_summary_dict("fgo-tc", r["window"], r) for r in sweep_windows(ds, args.sizes)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out, "sweep", SUMMARY_COLUMNS, rows)
    for r in rows:
        print(f"window {str(r['window']):>5}  mean {r['mean_err_m']:8.3f} m  std {r['std_err_m']:8.3f} m")
    return 0


def _numeric_column(table: dict, name: str, path: Path) -> np.ndarray:
    """:func:`table_column`, with a column that is missing or holds text a usage error."""
    try:
        return table_column(table, name, path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_fit_gmm(args: argparse.Namespace) -> int:
    # as text, so that only the columns used must be numbers
    path = Path(args.csv)
    table = read_csv(path)
    values = _numeric_column(table, args.column, path)
    if args.epoch_min is not None or args.epoch_max is not None:
        key = next((k for k in ("t", "epoch") if k in table), None)
        if key is None:
            raise UsageError("no epoch/t column available for filtering")
        epochs = _numeric_column(table, key, path)
        mask = np.ones(values.size, dtype=bool)
        if args.epoch_min is not None:
            mask &= epochs >= args.epoch_min
        if args.epoch_max is not None:
            mask &= epochs <= args.epoch_max
        values = values[mask]
    values = values[np.isfinite(values)]
    model = fit_gmm(values, args.k)
    rows = [
        {"weight": c.weight, "mean": c.mean, "std": c.std} for c in model.components
    ]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "gmm.json", "w") as fh:
            json.dump(
                {"k": args.k, "samples": int(values.size), "components": rows}, fh, indent=2
            )
    for c in rows:
        print(f"weight {c['weight']:.4f}  mean {c['mean']:9.3f} m  std {c['std']:9.3f} m")
    return 0


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnssins",
        description="GNSS/INS integration toolkit: EKF and factor-graph estimators "
        "over synthetic urban-canyon datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--preset", choices=["canyon", "noise-free"], default="canyon")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="run one estimator over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p.add_argument("--window", type=_parse_window, default=30, help="epochs or 'batch'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several estimators over one dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--estimators", help="comma list; default all four")
    p.add_argument("--window", type=_parse_window, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="window-size sweep of fgo-tc")
    p.add_argument("--dataset", required=True)
    p.add_argument("--sizes", type=_parse_sizes, default="1,5,10,30,batch")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit-gmm", help="fit a Gaussian mixture to a CSV column")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", default="residual_m")
    p.add_argument("-k", type=_int_at_least(1), default=3)
    p.add_argument("--epoch-min", type=float, default=None)
    p.add_argument("--epoch-max", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit_gmm)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SolverError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
