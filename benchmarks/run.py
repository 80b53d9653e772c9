"""gnssins benchmark: run one workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload tc-w30 --seed 99 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
makes one untraced pass and two traced repetitions (set-up plus pass) and
reports the per-layer metrics; the two repetitions must agree exactly on
every count. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the machine and the run's details. Results and spans are
also written to ``.bench_out/`` at the root of the checkout. See README.md
in this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import tracing
import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")
SETUP_REPS = 5  # one in this process, the rest in fresh interpreters
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict:
    """Size the BLAS/OpenMP pools: 1 thread unless set, never above nproc.

    A pool with one thread per CPU makes every BLAS call wait for the slowest
    CPU, so a run would feel interference on any CPU of a shared host. Must
    run before numpy is imported; set-up children inherit the values.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else 1
        os.environ[var] = str(min(n, nproc))
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def machine_info(threads: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
    }


def child_setup_seconds(workload, seed: int, epochs) -> tuple[float, float]:
    """One set-up in a fresh interpreter: (seconds, seconds at reference speed)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--setup-probe", workload.name, str(seed)]
    if epochs is not None:
        cmd.append(str(epochs))
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    seconds, scaled = done.stdout.split()[-2:]
    return float(seconds), float(scaled)


def percentile(values: list, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def timed_run(workload, seed: int, seconds: float, epochs):
    """End-to-end metrics from ``seconds // workload.pass_s`` untraced passes (at least one).

    Every time is scaled to the reference host speed by the speed probe (see
    ``workloads.SpeedProbe``); the unscaled figures go to the run's details.
    """
    ds, first_setup, first_scaled = workloads.setup_scaled(workload, seed, epochs)
    setups = [(first_setup, first_scaled)] + [
        child_setup_seconds(workload, seed, epochs) for _ in range(SETUP_REPS - 1)
    ]
    probe = workloads.SpeedProbe()
    n_passes = max(1, int(seconds // workload.pass_s))
    passes = [workloads.run_pass(ds, workload, probe) for _ in range(n_passes)]

    # one latency sample per epoch: its mean over the passes
    latencies = [statistics.fmean(v) for v in zip(*(p.scaled_latency_ms for p in passes))]
    outside_s = statistics.fmean(p.scaled_outside_s for p in passes)
    raw_latencies = [statistics.fmean(v) for v in zip(*(p.latency_ms for p in passes))]
    metrics = {
        "epochs_per_s": ds.n_epochs / (sum(latencies) / 1e3 + outside_s),
        "epoch_p50_ms": percentile(latencies, 50),
        "epoch_p90_ms": percentile(latencies, 90),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "latency_samples": len(latencies),
        "host_speed": [p.speed for p in passes],
        "unscaled": {
            "epochs_per_s": ds.n_epochs
            / (sum(raw_latencies) / 1e3 + statistics.fmean(p.outside_s for p in passes)),
            "epoch_p50_ms": percentile(raw_latencies, 50),
            "epoch_p90_ms": percentile(raw_latencies, 90),
            "setup_s": statistics.median(raw for raw, _ in setups),
        },
        "setup_runs_s": setups,
        "pass_wall_s": [p.wall_s for p in passes],
        "errors_m": passes[0].errors,
        "err_2d_mean_m": passes[0].err_2d_mean_m,
    }
    problems = list(dict.fromkeys(q for p in passes for q in p.problems))
    if any(p.errors != passes[0].errors for p in passes):
        problems.append("estimates differ between passes over the same dataset")
    return passes, problems, metrics, detail


def pass_series(passes) -> list:
    """Per-pass, per-epoch latencies (ms), raw and scaled, for the record file."""
    return [
        {
            "speed": p.speed,
            "latency_ms": p.latency_ms,
            "scaled_latency_ms": p.scaled_latency_ms,
            "probe_s": p.probe_s,
        }
        for p in passes
    ]


def traced_run(workload, seed: int, epochs, spans_path: str):
    """Per-layer metrics: one untraced pass, then two traced set-up + pass repetitions."""
    ds, _ = workloads.setup(workload, seed, epochs)
    untraced = workloads.run_pass(ds, workload)
    tracer = tracing.Tracer()
    tracer.install()
    reps = []
    try:
        for rep in ("rep1", "rep2"):
            tracer.run = rep
            rep_ds, _ = workloads.setup(workload, seed, epochs)
            reps.append(workloads.run_pass(rep_ds, workload))
    finally:
        tracer.restore()
    tracer.write(spans_path)

    per_rep = [tracing.layer_metrics(tracer.spans, rep) for rep in ("rep1", "rep2")]
    problems = list(dict.fromkeys(q for p in [untraced] + reps for q in p.problems))
    for name in tracing.COUNT_METRICS:
        if per_rep[0][name] != per_rep[1][name]:
            problems.append(f"{name} differs between traced runs: {per_rep[0][name]} vs {per_rep[1][name]}")
    if any(p.errors != untraced.errors for p in reps):
        problems.append("traced estimates differ from untraced ones")
    if tracer.missing:
        problems.append(f"call sites not found, their metrics read 0: {tracer.missing}")

    metrics = {}
    for name in per_rep[0]:
        if name in tracing.COUNT_METRICS:
            metrics[name] = per_rep[0][name]
        else:
            metrics[name] = statistics.median(m[name] for m in per_rep)
    metrics["err_2d_mean_m"] = untraced.err_2d_mean_m
    traced_wall = statistics.median(p.wall_s for p in reps)
    metrics["trace.overhead_frac"] = traced_wall / untraced.wall_s - 1.0

    detail = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": [p.wall_s for p in reps],
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, workloads.ROOT),
        "errors_m": untraced.errors,
    }
    return [untraced] + reps, problems, metrics, detail


def metric_units() -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--epochs", type=int, default=None, help="cut the canyon to this many epochs (smoke tests)"
    )
    args = parser.parse_args(argv)
    if args.epochs is not None and args.epochs < 2:
        parser.error("--epochs must be at least 2")
    threads = cap_threads()
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        passes, problems, metrics, detail = traced_run(
            workload, args.seed, args.epochs, stem + "-spans.jsonl"
        )
    else:
        passes, problems, metrics, detail = timed_run(
            workload, args.seed, args.seconds, args.epochs
        )

    units = metric_units()
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(threads),
        "detail": detail,
        "problems": problems,
        "result": result,
    }
    if not args.trace:
        record["series"] = pass_series(passes)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
