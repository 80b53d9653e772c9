"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
asserts make pytest enforce the same outcomes.
"""

import math
import time

import numpy as np
import pytest

from gnssins.canyon_sim import (
    default_canyon_config,
    generate_lc_fixes,
    noise_free_config,
    simulate,
)
from gnssins.ekf import BeliefState, default_process_noise, initial_covariance, predict, update_lc
from gnssins.fgo import (
    clock_walk_factor,
    gnss_fix_factor,
    ins_factor,
    motion_factor,
    pseudorange_factor,
)
from gnssins.frames import (
    Geodetic,
    ecef_to_geodetic,
    geodetic_to_ecef,
    rotation_global_from_local,
    rotation_local_from_body,
    EulerAngles,
)
from gnssins.harness import RunConfig, run_estimator
from gnssins.noise_models import SatObservation, ins_cov, lc_fix_covariance, motion_model_cov
from gnssins.nls_solver import NlsProblem, ResidualBlock, numeric_jacobian, solve_lm, sqrt_info_from_cov_diag
from gnssins.residual_analysis import fit_gmm, match_components
from gnssins.types import Constellation, StateLayout

TC = StateLayout((Constellation.GPS, Constellation.BEIDOU))
LC = StateLayout()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def canyon():
    ds = simulate(default_canyon_config())
    generate_lc_fixes(ds.epochs)
    return ds


@pytest.fixture(scope="module")
def canyon_results(canyon):
    results = {}
    t0 = time.perf_counter()
    for name in ("ekf-lc", "ekf-tc", "fgo-lc", "fgo-tc"):
        results[name] = run_estimator(canyon, RunConfig(estimator=name, window=30))
    results["_wall_time"] = time.perf_counter() - t0
    return results


def test_criterion_01_ordering_and_margin(canyon, canyon_results):
    means = {k: v.summary["mean_err_m"] for k, v in canyon_results.items() if k != "_wall_time"}
    nlos = canyon.nlos_fraction()
    ordering = (
        means["ekf-lc"] >= means["ekf-tc"] >= means["fgo-lc"] >= means["fgo-tc"]
    )
    margin = means["fgo-tc"] <= 0.75 * means["ekf-tc"]
    wall = canyon_results["_wall_time"]
    ok = (
        canyon.n_epochs == 300
        and nlos >= 0.25
        and ordering
        and margin
        and wall < 60.0
    )
    report(
        "criterion 1 (Table-2 ordering)",
        ok,
        f"means ekf-lc {means['ekf-lc']:.2f} >= ekf-tc {means['ekf-tc']:.2f} >= "
        f"fgo-lc {means['fgo-lc']:.2f} >= fgo-tc {means['fgo-tc']:.2f} m, "
        f"fgo-tc/ekf-tc {means['fgo-tc']/means['ekf-tc']:.2f} (<=0.75), "
        f"nlos {nlos:.2f}, wall {wall:.1f}s",
    )


def test_criterion_02_window_one_ekf_like(canyon, canyon_results):
    w1 = run_estimator(canyon, RunConfig(estimator="fgo-tc", window=1))
    ekf_tc = canyon_results["ekf-tc"].summary["mean_err_m"]
    mean_w1 = w1.summary["mean_err_m"]
    ok = mean_w1 <= 0.9 * ekf_tc
    report(
        "criterion 2 (window-1 EKF-like estimator)",
        ok,
        f"fgo-tc w=1 {mean_w1:.2f} m vs ekf-tc {ekf_tc:.2f} m "
        f"(ratio {mean_w1/ekf_tc:.2f}, need <=0.90)",
    )


def test_criterion_03_window_plateau(canyon):
    from gnssins.harness import sweep_windows

    rows = sweep_windows(canyon, [1, 5, 10, 30, None])
    means = {r["window"]: r["mean_err_m"] for r in rows}
    plateau = abs(means[30] - means["batch"]) <= 0.05 * means["batch"]
    improving = means[30] < means[1]
    ok = plateau and improving
    report(
        "criterion 3 (window plateau)",
        ok,
        f"w1 {means[1]:.2f}, w30 {means[30]:.2f}, batch {means['batch']:.2f} m; "
        f"|w30-batch|/batch {abs(means[30]-means['batch'])/means['batch']:.3f} (<=0.05)",
    )


def _random_tc_state(rng):
    x = TC.zeros()
    x[0:3] = rng.normal(scale=1e3, size=3)
    x[3:6] = rng.normal(scale=10.0, size=3)
    x[TC.clock_slice()] = rng.normal(scale=100.0, size=2)
    return x


def test_criterion_04_solver_correctness():
    rng = np.random.default_rng(2026)

    # (a) purely linear problems match the closed-form normal equations
    max_lin = 0.0
    for _ in range(5):
        n_states, dim = 4, 3
        blocks, mats = [], []
        for i in range(10):
            idx = int(rng.integers(0, n_states))
            a = rng.normal(size=(dim, dim))
            b_vec = rng.normal(size=dim)
            mats.append((idx, a, b_vec))
            blocks.append(
                ResidualBlock(
                    (idx,), dim, (lambda x, a=a, b=b_vec: a @ x - b),
                    jac=(lambda x, a=a: [a]), sqrt_info=np.eye(dim),
                )
            )
        for s in range(n_states):
            t = rng.normal(size=dim)
            mats.append((s, np.eye(dim), t))
            blocks.append(
                ResidualBlock(
                    (s,), dim, (lambda x, t=t: x - t),
                    jac=(lambda x: [np.eye(dim)]), sqrt_info=np.eye(dim),
                )
            )
        problem = NlsProblem([dim] * n_states, blocks, rng.normal(size=n_states * dim))
        h = np.zeros((n_states * dim, n_states * dim))
        g = np.zeros(n_states * dim)
        for idx, a, b_vec in mats:
            sl = slice(idx * dim, (idx + 1) * dim)
            h[sl, sl] += a.T @ a
            g[sl] += a.T @ b_vec
        expected = np.linalg.solve(h, g)
        rep = solve_lm(problem)
        max_lin = max(max_lin, float(np.abs(rep.values - expected).max()))
    lin_ok = max_lin < 1e-9

    # (b) analytic Jacobians of the four factor types vs central differences
    sat_dir = rng.normal(size=3)
    max_rel = 0.0
    for _ in range(100):
        xp, xc = _random_tc_state(rng), _random_tc_state(rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        sat = SatObservation(
            sat_id="S", constellation=Constellation.BEIDOU,
            sat_pos=xc[0:3] + 2.2e7 * direction, pseudorange=2.2e7,
            snr=45.0, elevation=0.8,
        )
        factors = [
            (motion_factor(0, 1, 1.0, motion_model_cov(), TC), [xp, xc]),
            (ins_factor(0, 1, rng.normal(size=3), 1.0, ins_cov(), TC), [xp, xc]),
            (gnss_fix_factor(0, rng.normal(size=3), lc_fix_covariance(1.0, 10.0), TC), [xc]),
            (pseudorange_factor(0, sat, 1.0, TC), [xc]),
        ]
        for f, states in factors:
            analytic = np.hstack(f.jac(*states))
            numeric = numeric_jacobian(f, states, h=1e-2 if "pseudo" in f.label else 1e-5)
            scale = max(1.0, np.abs(analytic).max())
            max_rel = max(max_rel, float(np.abs(analytic - numeric).max() / scale))
    jac_ok = max_rel < 1e-6

    # (c) accepted-step costs decrease monotonically on nonlinear problems
    mono_ok = True
    for trial in range(5):
        blocks = [
            ResidualBlock(
                (0,), 1,
                (lambda x, c=1.5 + trial: np.array([np.exp(0.3 * x[0]) - c])),
                sqrt_info=np.eye(1),
            ),
            ResidualBlock(
                (0,), 1,
                (lambda x: np.array([10.0 * (x[1] - x[0] ** 2)])),
                sqrt_info=np.eye(1),
            ),
        ]
        rep = solve_lm(NlsProblem([2], blocks, np.array([2.0, -1.0])))
        mono_ok &= all(b < a for a, b in zip(rep.cost_trace, rep.cost_trace[1:]))

    ok = lin_ok and jac_ok and mono_ok
    report(
        "criterion 4 (solver correctness)",
        ok,
        f"linear max err {max_lin:.1e} (<=1e-9), jacobian max rel {max_rel:.1e} (<=1e-6), "
        f"cost trace monotone: {mono_ok}",
    )


def test_criterion_05_ekf_kalman_oracle():
    rng = np.random.default_rng(404)
    layout = LC
    n = layout.dim
    f = np.eye(n)
    f[0:3, 3:6] = np.eye(3)
    h = np.zeros((3, n))
    h[:, 0:3] = np.eye(3)
    q = np.diag(default_process_noise(layout))
    r_diag = np.full(3, 64.0)
    r = np.diag(r_diag)

    b = BeliefState(rng.normal(size=n), initial_covariance(layout), layout)
    x_ref, p_ref = b.mean.copy(), b.cov.copy()
    max_diff = 0.0
    for _ in range(100):
        accel = rng.normal(size=3)
        fix = rng.normal(scale=8.0, size=3)
        b = update_lc(predict(b, accel, 1.0), fix, r_diag)

        u = np.zeros(n)
        u[3:6] = accel
        x_ref = f @ x_ref + u
        p_ref = f @ p_ref @ f.T + q
        k = p_ref @ h.T @ np.linalg.inv(h @ p_ref @ h.T + r)
        x_ref = x_ref + k @ (fix - h @ x_ref)
        p_ref = (np.eye(n) - k @ h) @ p_ref
        max_diff = max(
            max_diff,
            float(np.abs(b.mean - x_ref).max()),
            float(np.abs(b.cov - p_ref).max()),
        )
    ok = max_diff < 1e-9
    report(
        "criterion 5 (EKF vs textbook Kalman filter)",
        ok,
        f"max state/cov difference over 100 epochs {max_diff:.1e} (<=1e-9)",
    )


def test_criterion_06_noise_free_smoke():
    ds = simulate(noise_free_config(duration_s=60.0))
    generate_lc_fixes(ds.epochs)
    t0 = time.perf_counter()
    means = {}
    for name in ("ekf-lc", "ekf-tc", "fgo-lc", "fgo-tc"):
        means[name] = run_estimator(ds, RunConfig(estimator=name, window=30)).summary["mean_err_m"]
    wall = time.perf_counter() - t0
    ok = all(m < 0.01 for m in means.values()) and wall < 10.0
    report(
        "criterion 6 (noise-free smoke test)",
        ok,
        "mean 2D errors "
        + ", ".join(f"{k} {v:.2e}" for k, v in means.items())
        + f" m (<0.01), wall {wall:.1f}s (<10)",
    )


def test_criterion_07_gmm_suite(canyon, canyon_results):
    # (a) log-likelihood monotone
    rng = np.random.default_rng(777)
    samples = np.concatenate([rng.normal(-4, 1, 600), rng.normal(3, 2, 900), rng.normal(25, 6, 500)])
    model = fit_gmm(samples, 3)
    mono = all(b >= a - 1e-12 for a, b in zip(model.ll_trace, model.ll_trace[1:]))

    # (b) 3-component recovery
    rng = np.random.default_rng(4242)
    weights, means, stds = [0.2, 0.5, 0.3], [-5.0, 0.0, 40.0], [2.0, 3.0, 15.0]
    counts = rng.multinomial(20_000, weights)
    mix = np.concatenate([rng.normal(m, s, size=c) for m, s, c in zip(means, stds, counts)])
    fitted = fit_gmm(mix, 3)
    matched = match_components(fitted, means)
    rec_err = max(abs(c.mean - t) for c, t in zip(matched, means))
    recovery = rec_err < 1.0

    # (c) k=1 equals sample moments
    one = fit_gmm(mix[:5000], 1)
    mom_ok = (
        abs(one.components[0].mean - float(np.mean(mix[:5000]))) < 1e-9
        and abs(one.components[0].std - float(np.std(mix[:5000]))) < 1e-9
    )

    # (d) canyon residuals: the fitted long-tail component tracks the
    # configured NLOS bias component (GPS: 38.76 m) inside the densest
    # NLOS window
    cfg = default_canyon_config()
    target = max(cfg.nlos_model["GPS"].components, key=lambda c: c.mean).mean
    records = canyon_results["fgo-tc"].records
    nlos_per_epoch = {e.t: sum(1 for s in e.sats if s.nlos_truth) for e in canyon.epochs}
    wlen = 60
    best_c, best_n = wlen, -1
    for center in range(wlen, canyon.n_epochs + 1, 5):
        n = sum(nlos_per_epoch.get(float(t), 0) for t in range(center - wlen, center))
        if n > best_n:
            best_n, best_c = n, center
    window_samples = np.array(
        [value for e, r in zip(canyon.epochs, records)
         if best_c - wlen < e.t <= best_c and r.residuals is not None
         for s, value in zip(e.sats, r.residuals) if s.constellation is Constellation.GPS]
    )
    canyon_fit = fit_gmm(window_samples, 3)
    tail = max(canyon_fit.components, key=lambda c: c.mean)
    tail_rel = abs(tail.mean - target) / target
    tail_ok = tail_rel <= 0.20

    ok = mono and recovery and mom_ok and tail_ok
    report(
        "criterion 7 (GMM/EM suite)",
        ok,
        f"LL monotone {mono}, recovery max err {rec_err:.2f} m (<1.0), k=1 moments {mom_ok}, "
        f"canyon tail mean {tail.mean:.1f} vs {target:.2f} m ({100*tail_rel:.0f}%, <=20%)",
    )


def test_criterion_08_frames():
    rng = np.random.default_rng(808)
    worst_orth = 0.0
    worst_round = 0.0
    worst_elem = 0.0
    for _ in range(1000):
        lat = rng.uniform(-math.pi / 2, math.pi / 2)
        lon = rng.uniform(-math.pi, math.pi)
        geo = Geodetic(lat, lon, rng.uniform(-100, 8000))
        r = rotation_global_from_local(geo)
        worst_orth = max(worst_orth, float(np.abs(r.T @ r - np.eye(3)).max()))
        att = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        rb = rotation_local_from_body(att)
        worst_orth = max(worst_orth, float(np.abs(rb.T @ rb - np.eye(3)).max()))

        p = geodetic_to_ecef(geo)
        back = geodetic_to_ecef(ecef_to_geodetic(p))
        worst_round = max(worst_round, float(np.linalg.norm(back - p)))

        sphi, cphi = math.sin(lat), math.cos(lat)
        slam, clam = math.sin(lon), math.cos(lon)
        expected = np.array(
            [
                [-slam, -sphi * clam, cphi * clam],
                [clam, -sphi * slam, cphi * slam],
                [0.0, cphi, sphi],
            ]
        )
        worst_elem = max(worst_elem, float(np.abs(r - expected).max()))
    ok = worst_orth < 1e-12 and worst_round < 1e-6 and worst_elem < 1e-15
    report(
        "criterion 8 (frame suite)",
        ok,
        f"orthonormality {worst_orth:.1e} (<1e-12), round trip {worst_round:.1e} m (<1e-6), "
        f"element-wise {worst_elem:.1e}",
    )


def test_criterion_09_covariance_scaling():
    from dataclasses import replace

    cfg = replace(default_canyon_config(), duration_s=80.0)
    ds = simulate(cfg)
    generate_lc_fixes(ds.epochs)
    runs = []
    for scale in (1.0, 10.0):
        result = run_estimator(ds, RunConfig(estimator="fgo-tc", window=30, cov_scale=scale))
        runs.append([r.est_pos for r in result.records])
    max_diff = max(
        float(np.linalg.norm(a - b)) for a, b in zip(runs[0], runs[1])
    )
    ok = max_diff < 1e-6
    report(
        "criterion 9 (covariance-scaling invariance)",
        ok,
        f"max per-epoch trajectory change under 10x covariances {max_diff:.1e} m (<1e-6)",
    )


def test_criterion_10_relative_timing(canyon_results):
    times = {k: v.summary["total_time_s"] for k, v in canyon_results.items() if k != "_wall_time"}
    ok = (
        times["fgo-tc"] > times["fgo-lc"] > max(times["ekf-tc"], times["ekf-lc"])
        and max(times["ekf-tc"], times["ekf-lc"]) / max(min(times["ekf-tc"], times["ekf-lc"]), 1e-9) < 20.0
    )
    report(
        "criterion 10 (relative solve-time ordering)",
        ok,
        "solve times "
        + ", ".join(f"{k} {v:.2f}s" for k, v in sorted(times.items()))
        + " (fgo-tc > fgo-lc > ekf)",
    )


# the north star: mean 2D error in m on the default canyon (seed 99), at
# window 30 and, for fgo-tc, in batch
NORTH_STAR_M = {
    "ekf-lc": 8.487904,
    "ekf-tc": 7.982316,
    "fgo-lc": 6.828921,
    "fgo-tc": 4.728058,
    "fgo-tc batch": 4.711543,
}


def test_north_star_means(canyon, canyon_results):
    """Not a criterion: pins the means a change must reproduce or table."""
    means = {k: v.summary["mean_err_m"] for k, v in canyon_results.items() if k != "_wall_time"}
    batch = run_estimator(canyon, RunConfig(estimator="fgo-tc", window=None))
    means["fgo-tc batch"] = batch.summary["mean_err_m"]
    for name, pinned in NORTH_STAR_M.items():
        assert abs(means[name] - pinned) <= 1e-4, f"{name}: {means[name]:.6f} m, pinned at {pinned} m"
