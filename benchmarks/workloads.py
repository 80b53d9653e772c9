"""The benchmark's workloads: set-up, one timed pass, and output checks.

Only the standard library is imported at module level, because
:func:`setup` times the import of gnssins (and with it numpy and scipy) the
way ``gnssins run`` pays for it. Run as a script, this module performs one
set-up in a fresh interpreter and prints its duration in seconds and the
host speed measured right after it (see :class:`SpeedProbe`)::

    python3 benchmarks/workloads.py --setup-probe tc-w30 99
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# a diverged estimator reaches hundreds of meters; the four paper estimators
# stay between 3 and 11 m on every canyon seed tried
ERR_CEILING_M = 25.0

# duration of one warm SpeedProbe call on the reference host (2-vCPU Xeon
# VM, CPython 3.11, numpy 2.4, 1 BLAS thread; it took 0.21-0.28 ms there);
# timings are reported as if the host ran at this speed
PROBE_REF_S = 0.2e-3
# a solve is scaled by the median of the probes taken after this many
# epochs on either side of it
PROBE_HALF_WINDOW = 5


@dataclass(frozen=True)
class Workload:
    name: str
    estimators: tuple[str, ...]
    window: Optional[int]  # None is batch mode
    duration_s: float  # canyon length; one GNSS epoch per second
    # nominal seconds per pass (seed commit, 2-vCPU Xeon host): a run makes
    # seconds // pass_s passes, so the pass count does not depend on how fast
    # the host happens to be, and the per-epoch mean over passes stays comparable
    pass_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tc-w30", ("fgo-tc",), 30, 300.0, 16.0),
        Workload("tc-batch", ("fgo-tc",), None, 100.0, 10.0),
        Workload("lc-ekf-w30", ("ekf-lc", "ekf-tc", "fgo-lc"), 30, 300.0, 6.0),
    )
}


def import_gnssins():
    """Import gnssins from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gnssins

    if not os.path.abspath(gnssins.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gnssins was imported from {gnssins.__file__}, not from {SRC}")
    return gnssins


def setup(workload: Workload, seed: int, epochs: Optional[int] = None):
    """Import gnssins, simulate the canyon, add LC fixes. Returns (dataset, seconds)."""
    t0 = time.perf_counter()
    import_gnssins()
    from gnssins import canyon_sim

    duration = workload.duration_s if epochs is None else float(epochs)
    cfg = dataclasses.replace(canyon_sim.default_canyon_config(seed), duration_s=duration)
    ds = canyon_sim.simulate(cfg)
    canyon_sim.generate_lc_fixes(ds.epochs)
    return ds, time.perf_counter() - t0


class SpeedProbe:
    """A fixed piece of work that measures how fast the host runs right now.

    The host is shared: its speed swings by up to 1.6x, in stretches from
    seconds to tens of minutes, and a stretch can cover whole runs. The probe
    is a small mix of what the estimators do (a dense Cholesky factor and
    solve, short numpy vector operations from a Python loop) and takes about
    :data:`PROBE_REF_S` on the reference host. ``PROBE_REF_S / duration`` is
    the host's speed factor at the time of the call.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((80, 80))
        self.spd = a @ a.T + 80.0 * np.eye(80)
        self.rhs = rng.standard_normal((80, 4))
        self.vecs = [rng.standard_normal(9) for _ in range(24)]
        self.np = np

    def __call__(self) -> float:
        """Duration of one warm call: a first, untimed call brings the data into cache."""
        self._work()
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def _work(self) -> None:
        np = self.np
        low = np.linalg.cholesky(self.spd)
        acc = float(np.linalg.solve(low, self.rhs)[0, 0])
        for v in self.vecs:
            acc += float(v @ v) + float(np.sqrt(abs(v[0])))
            for j in range(8):
                acc += j * 0.5
        if not math.isfinite(acc):
            raise ArithmeticError("speed probe produced a non-finite value")

    def factor(self, seconds: float = 0.3) -> float:
        """Host speed factor: the reference duration over the median probe for ``seconds``."""
        durations = []
        end = time.perf_counter() + seconds
        while not durations or time.perf_counter() < end:
            durations.append(self())
        return PROBE_REF_S / statistics.median(durations)


def local_factors(durations: list, half: int = PROBE_HALF_WINDOW) -> list:
    """Per-epoch speed factor: reference over the median of nearby probe durations."""
    n = len(durations)
    return [
        PROBE_REF_S / statistics.median(durations[max(0, k - half) : k + half + 1])
        for k in range(n)
    ]


def setup_scaled(workload: Workload, seed: int, epochs: Optional[int] = None):
    """:func:`setup`, plus its duration scaled to the reference host speed."""
    ds, seconds = setup(workload, seed, epochs)
    return ds, seconds, seconds * SpeedProbe().factor()


@dataclass
class PassResult:
    """All of a workload's ``run_estimator`` calls on one dataset."""

    wall_s: float = 0.0
    # per epoch index, the solve_time summed over the workload's estimators
    latency_ms: list = field(default_factory=list)
    # the same, each solve scaled to the reference host speed
    scaled_latency_ms: list = field(default_factory=list)
    # wall time outside the solves and the probes, raw and scaled
    outside_s: float = 0.0
    scaled_outside_s: float = 0.0
    # median host speed factor over the pass (nan when not probed), and the
    # probe durations taken between epochs
    speed: float = math.nan
    probe_s: list = field(default_factory=list)
    # mean 2D error per estimator, and over every epoch of every run
    errors: dict = field(default_factory=dict)
    err_2d_mean_m: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_pass(ds, workload: Workload, probe: Optional[SpeedProbe] = None) -> PassResult:
    """Run each estimator of the workload once over ``ds`` and check its output.

    An operation is one epoch of one estimator. ``run_estimator`` returns
    nothing when it raises, so an exception fails every epoch of that run.

    With a ``probe``, the host speed is measured once per epoch, outside the
    solve: the probe runs as the harness scores the epoch's estimate
    (``residual_analysis.error_2d``), and each solve is scaled by the median
    speed over its neighbouring epochs. If the probes do not line up with
    the epochs, the run's solves are scaled by the probes taken before and
    after it.
    """
    from gnssins import harness, residual_analysis

    n = ds.n_epochs
    out = PassResult(latency_ms=[0.0] * n, scaled_latency_ms=[0.0] * n)
    all_errors = []
    speeds = []
    for name in workload.estimators:
        cfg = harness.RunConfig(estimator=name, window=workload.window)
        out.attempted += n
        probes: list = []
        probe_cost = [0.0]  # wall time of the probes inside the run, warm-up calls too
        if probe is not None:
            around = [probe() for _ in range(PROBE_HALF_WINDOW)]
            error_2d = residual_analysis.error_2d

            def probed_error_2d(*args, **kwargs):
                t = time.perf_counter()
                probes.append(probe())
                probe_cost[0] += time.perf_counter() - t
                return error_2d(*args, **kwargs)

            residual_analysis.error_2d = probed_error_2d
        t0 = time.perf_counter()
        try:
            result = harness.run_estimator(ds, cfg)
        except Exception as exc:  # a failed run is reported, not fatal
            out.wall_s += time.perf_counter() - t0
            out.failed += n
            out.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if probe is not None:
                residual_analysis.error_2d = error_2d
        wall = time.perf_counter() - t0
        out.wall_s += wall

        records = result.records
        solve_s = sum(rec.solve_time for rec in records)
        if probe is not None:
            around += [probe() for _ in range(PROBE_HALF_WINDOW)]
            if len(probes) == len(records):
                factors = local_factors(probes)
            else:
                factors = [PROBE_REF_S / statistics.median(around)] * len(records)
            run_speed = statistics.median(factors) if factors else 1.0
            speeds.append(run_speed)
        else:
            factors = [1.0] * len(records)
            run_speed = 1.0
        out.probe_s.extend(probes)
        outside = max(0.0, wall - solve_s - probe_cost[0])
        out.outside_s += outside
        out.scaled_outside_s += outside * run_speed
        bad = n - len(records)
        errors = []
        for k, rec in enumerate(records[:n]):
            ok = (
                rec.epoch == ds.epochs[k].t
                and all(math.isfinite(v) for v in rec.est_pos)
                and math.isfinite(rec.err_2d)
                and math.isfinite(rec.solve_time)
                and rec.solve_time >= 0.0
            )
            if not ok:
                bad += 1
                continue
            out.latency_ms[k] += rec.solve_time * 1e3
            out.scaled_latency_ms[k] += rec.solve_time * 1e3 * factors[k]
            errors.append(rec.err_2d)
        out.failed += bad
        if bad:
            out.problems.append(f"{name}: {bad} of {n} epochs missing or not finite")
        if errors:
            mean = sum(errors) / len(errors)
            out.errors[name] = mean
            all_errors.extend(errors)
            if not mean <= ERR_CEILING_M:
                out.problems.append(
                    f"{name}: mean 2D error {mean:.3f} m above the {ERR_CEILING_M} m ceiling"
                )
    if all_errors:
        out.err_2d_mean_m = sum(all_errors) / len(all_errors)
    if speeds:
        out.speed = statistics.median(speeds)
    return out


def _probe(argv: list[str]) -> None:
    name, seed = argv[0], int(argv[1])
    epochs = int(argv[2]) if len(argv) > 2 else None
    _, seconds, scaled = setup_scaled(WORKLOADS[name], seed, epochs)
    print(repr(seconds), repr(scaled))


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] != "--setup-probe":
        sys.exit("usage: workloads.py --setup-probe WORKLOAD SEED [EPOCHS]")
    _probe(sys.argv[2:])
