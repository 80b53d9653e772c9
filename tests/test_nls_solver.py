import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins import nls_solver
from gnssins.harness import RunConfig
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
    total_cost,
    upper_band,
)


def linear_problem(rng, n_states=3, state_dim=2, n_blocks=6, sigma2=1.0):
    """Random well-conditioned linear least squares split into blocks."""
    blocks = []
    mats = []
    for i in range(n_blocks):
        idx = (int(rng.integers(0, n_states)),)
        a = rng.normal(size=(state_dim + 1, state_dim))
        b = rng.normal(size=state_dim + 1)
        mats.append((idx[0], a, b))
        blocks.append(
            ResidualBlock(
                state_indices=idx,
                dim=state_dim + 1,
                fn=lambda x, a=a, b=b: a @ x - b,
                jac=lambda x, a=a: [a],
                sqrt_info=sqrt_info_from_cov_diag(np.full(state_dim + 1, sigma2)),
                label=f"lin{i}",
            )
        )
    # anchor every state so the problem is full rank
    for s in range(n_states):
        target = rng.normal(size=state_dim)
        blocks.append(
            ResidualBlock(
                state_indices=(s,),
                dim=state_dim,
                fn=lambda x, t=target: x - t,
                jac=lambda x: [np.eye(state_dim)],
                sqrt_info=sqrt_info_from_cov_diag(np.full(state_dim, sigma2)),
                label=f"anchor{s}",
            )
        )
        mats.append((s, np.eye(state_dim), target))
    problem = NlsProblem(
        state_dims=[state_dim] * n_states,
        blocks=blocks,
        initial_values=rng.normal(size=n_states * state_dim),
    )
    return problem, mats


def closed_form(problem, mats, n_states, state_dim):
    n = n_states * state_dim
    h = np.zeros((n, n))
    g = np.zeros(n)
    for idx, a, b in mats:
        sl = slice(idx * state_dim, (idx + 1) * state_dim)
        h[sl, sl] += a.T @ a
        g[sl] += a.T @ b
    return np.linalg.solve(h, g)


class TestTotalCost:
    def test_zero_residuals(self):
        block = ResidualBlock((0,), 2, lambda x: x, sqrt_info=np.eye(2))
        p = NlsProblem([2], [block], np.zeros(2))
        assert total_cost(p, np.zeros(2)) == 0.0

    def test_single_block_definition(self):
        sigma2 = 4.0
        block = ResidualBlock(
            (0,), 1, lambda x: np.array([x[0] - 3.0]), sqrt_info=sqrt_info_from_cov_diag([sigma2])
        )
        p = NlsProblem([1], [block], np.zeros(1))
        assert total_cost(p, np.array([5.0])) == pytest.approx((5.0 - 3.0) ** 2 / sigma2)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(0)
        problem, _ = linear_problem(rng)
        x = rng.normal(size=problem.total_dim)
        expected = 0.0
        for block in problem.blocks:
            states = [problem.split(x)[i] for i in block.state_indices]
            r = block.sqrt_info @ block.fn(*states)
            expected += float(r @ r)
        assert total_cost(problem, x) == pytest.approx(expected, abs=1e-12)

    def test_nonfinite_residual_raises(self):
        block = ResidualBlock((0,), 1, lambda x: np.array([np.nan]), sqrt_info=np.eye(1))
        p = NlsProblem([1], [block], np.zeros(1))
        with pytest.raises(EvaluationError):
            total_cost(p, np.zeros(1))


class TestNumericJacobian:
    def test_linear_residual_recovers_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        block = ResidualBlock((0,), 3, lambda x: a @ x - 1.0, sqrt_info=np.eye(3))
        j = numeric_jacobian(block, [rng.normal(size=4)])
        assert np.allclose(j, a, atol=1e-9)

    def test_quadratic_derivative(self):
        block = ResidualBlock((0,), 1, lambda x: np.array([x[0] ** 2]), sqrt_info=np.eye(1))
        j = numeric_jacobian(block, [np.array([3.0])])
        assert j[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_multi_state_columns(self):
        block = ResidualBlock(
            (0, 1),
            2,
            lambda x, y: np.array([x[0] * y[0], x[1] + 2 * y[1]]),
            sqrt_info=np.eye(2),
        )
        j = numeric_jacobian(block, [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        expected = np.array([[3.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 2.0]])
        assert np.allclose(j, expected, atol=1e-7)


class TestSolveLm:
    def test_linear_matches_closed_form(self):
        rng = np.random.default_rng(2)
        problem, mats = linear_problem(rng)
        report = solve_lm(problem)
        expected = closed_form(problem, mats, 3, 2)
        assert report.converged
        assert report.iterations <= 2
        assert np.allclose(report.values, expected, atol=1e-9)

    @pytest.mark.parametrize(
        "seed, shape, atol",
        [
            (2, {}, 1e-9),
            (3, {}, 1e-9),
            (4, dict(n_states=4, n_blocks=10), 1e-9),
            (5, dict(sigma2=1.0), 1e-9),
            (5, dict(sigma2=10.0), 1e-9),
            # one damped step leaves about lambda0 * cond(H) of the start's
            # error, 1.6e-9 at these 720 unknowns
            (6, dict(n_states=80, state_dim=9, n_blocks=200), 1e-8),
        ],
    )
    def test_warm_damping_solves_a_linear_problem_in_one_step(self, seed, shape, atol):
        # a window's damping starts below gtol, so the first step leaves a
        # gradient that passes the test
        problem, mats = linear_problem(np.random.default_rng(seed), **shape)
        report = solve_lm(problem, RunConfig().lm)
        assert report.converged and report.message == "gradient below gtol"
        assert report.iterations == 1
        expected = closed_form(problem, mats, len(problem.state_dims), problem.state_dims[0])
        assert np.allclose(report.values, expected, rtol=0.0, atol=atol)

    def test_already_optimal_returns_input(self):
        rng = np.random.default_rng(3)
        problem, mats = linear_problem(rng)
        optimum = closed_form(problem, mats, 3, 2)
        problem.initial_values = optimum
        report = solve_lm(problem)
        assert report.converged
        assert report.iterations == 0
        assert np.allclose(report.values, optimum, atol=1e-12)

    def test_rosenbrock_converges(self):
        blocks = [
            ResidualBlock(
                (0,),
                1,
                lambda x: np.array([10.0 * (x[1] - x[0] ** 2)]),
                jac=lambda x: [np.array([[-20.0 * x[0], 10.0]])],
                sqrt_info=np.eye(1),
            ),
            ResidualBlock(
                (0,),
                1,
                lambda x: np.array([1.0 - x[0]]),
                jac=lambda x: [np.array([[-1.0, 0.0]])],
                sqrt_info=np.eye(1),
            ),
        ]
        p = NlsProblem([2], blocks, np.array([-1.2, 1.0]))
        report = solve_lm(p)
        assert report.converged
        assert np.allclose(report.values, [1.0, 1.0], atol=1e-6)

    def test_cost_trace_strictly_decreasing(self):
        rng = np.random.default_rng(4)
        problem, _ = linear_problem(rng, n_states=4, n_blocks=10)
        report = solve_lm(problem)
        trace = report.cost_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert report.cost <= trace[0]

    def test_covariance_scaling_leaves_argmin(self):
        rng = np.random.default_rng(5)
        p1, _ = linear_problem(rng, sigma2=1.0)
        rng = np.random.default_rng(5)
        p2, _ = linear_problem(rng, sigma2=10.0)
        r1, r2 = solve_lm(p1), solve_lm(p2)
        assert np.allclose(r1.values, r2.values, atol=1e-9)
        assert r2.cost == pytest.approx(r1.cost / 10.0, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 10.0, 1e3])
    def test_covariance_scaling_leaves_stop_decision(self, scale):
        # a nonlinear problem whose stop is decided by the gradient test at
        # some scales if that test is not scale-free
        def problem(s):
            w = sqrt_info_from_cov_diag([s])
            blocks = [
                ResidualBlock(
                    (0,),
                    1,
                    lambda x: np.array([10.0 * (x[1] - x[0] ** 2)]),
                    jac=lambda x: [np.array([[-20.0 * x[0], 10.0]])],
                    sqrt_info=w,
                ),
                ResidualBlock(
                    (0,),
                    1,
                    lambda x: np.array([1.0 - x[0]]),
                    jac=lambda x: [np.array([[-1.0, 0.0]])],
                    sqrt_info=w,
                ),
                ResidualBlock((0,), 1, lambda x: np.array([np.exp(0.3 * x[0]) - 1.5]), sqrt_info=w),
            ]
            return NlsProblem([2], blocks, np.array([-1.2, 1.0]))

        ref, scaled = solve_lm(problem(1.0)), solve_lm(problem(scale))
        assert scaled.iterations == ref.iterations
        assert scaled.message == ref.message
        assert np.allclose(scaled.values, ref.values, rtol=0.0, atol=1e-9)

    def test_relinearizes_every_iteration(self):
        blocks = [
            ResidualBlock(
                (0,),
                1,
                lambda x: np.array([np.exp(0.5 * x[0]) - 3.0]),
                sqrt_info=np.eye(1),
            )
        ]
        p = NlsProblem([1], blocks, np.array([4.0]))
        report = solve_lm(p)
        assert report.converged
        assert report.jacobian_evals >= report.iterations

    def test_singular_problem_raises(self):
        # one equation, two unknowns, and a rank-deficient Jacobian column
        block = ResidualBlock(
            (0,),
            1,
            lambda x: np.array([x[0] - 1.0]),
            jac=lambda x: [np.array([[1.0, 0.0]])],
            sqrt_info=np.eye(1),
        )
        p = NlsProblem([2], [block], np.array([5.0, 5.0]))
        with pytest.raises(SolverError):
            solve_lm(p, LmConfig(lambda_max=1e-10))

    def test_rejected_tie_stops_as_converged(self):
        # every trial step raises the cost by a rounding-sized 1e-12 of it:
        # the solve ends on the first trial instead of raising the damping
        class TieProblem:
            initial_values = np.zeros(2)
            trials = 0

            def normal_equations(self, x):
                return np.ones((1, 2)), np.array([1.0, -2.0]), 10.0

            def cost(self, x):
                self.trials += 1
                return 10.0 * (1.0 + 1e-12)

        problem = TieProblem()
        report = solve_lm(problem)
        assert report.converged
        assert report.message == "relative cost change below tol"
        assert problem.trials == 1 and report.iterations == 1
        assert np.array_equal(report.values, problem.initial_values)

    def test_damping_past_maximum_stops_unconverged(self):
        # every trial step raises the cost by 1e-3 of it, far above tol: the
        # damping grows tenfold per trial until it passes lambda_max
        class RisingProblem:
            initial_values = np.zeros(2)
            trials = 0

            def normal_equations(self, x):
                return np.ones((1, 2)), np.array([1.0, -2.0]), 10.0

            def cost(self, x):
                self.trials += 1
                return 10.0 * (1.0 + 1e-3)

        problem = RisingProblem()
        cfg = LmConfig()
        report = solve_lm(problem, cfg)
        assert not report.converged
        assert report.message == "damping exceeded maximum without improvement"
        assert report.iterations == 1 and report.cost_trace == [10.0]
        assert problem.trials == round(np.log10(cfg.lambda_max / cfg.lambda0)) + 1
        assert np.array_equal(report.values, problem.initial_values)

    def test_no_linearization_after_the_final_step(self):
        # one curved residual next to a large constant one: the first
        # accepted step lowers the cost by far less than tol of it, which
        # ends the solve, so the point it reaches is never linearized
        class Counting:
            def __init__(self, problem):
                self.problem = problem
                self.initial_values = problem.initial_values
                self.linearized = []

            def normal_equations(self, x):
                self.linearized.append(x.copy())
                return self.problem.normal_equations(x)

            def cost(self, x):
                return self.problem.cost(x)

        blocks = [
            ResidualBlock((0,), 1, lambda x: np.array([np.exp(x[0]) - 2.0]), sqrt_info=np.eye(1)),
            ResidualBlock((0,), 1, lambda x: np.array([1e3]), sqrt_info=np.eye(1)),
        ]
        problem = Counting(NlsProblem([1], blocks, np.array([np.log(2.0) + 1e-3])))
        report = solve_lm(problem)
        assert report.converged
        assert report.message == "relative cost change below tol"
        assert report.iterations == 1 and len(report.cost_trace) == 2
        assert report.jacobian_evals == len(problem.linearized) == 1
        assert np.array_equal(problem.linearized[0], problem.initial_values)
        # the reported cost is the final step's trial cost, as a
        # linearization there would have returned it
        assert report.cost == report.cost_trace[-1] == total_cost(problem.problem, report.values)
        assert report.cost == problem.problem.normal_equations(report.values)[2]
        assert report.cost < report.cost_trace[0]

    def test_large_problem_matches_closed_form(self):
        rng = np.random.default_rng(6)
        problem, mats = linear_problem(rng, n_states=80, state_dim=9, n_blocks=200)
        assert problem.total_dim == 720  # a batch-sized system on the banded path
        report = solve_lm(problem)
        expected = closed_form(problem, mats, 80, 9)
        assert np.allclose(report.values, expected, atol=1e-8)


class TestSolveDamped:
    """The banded damped solve against a dense solve of the same system."""

    @staticmethod
    def random_band(rng, n, u):
        # H = L L^T with L lower triangular of bandwidth u has bandwidth u
        low = np.tril(rng.normal(scale=0.3, size=(n, n)))
        low[np.tril_indices(n, -u - 1)] = 0.0
        low[np.diag_indices(n)] = rng.uniform(1.0, 2.0, size=n)
        return low @ low.T

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        u=st.integers(0, 6),
        lam=st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve_on_spd_bands(self, n, u, lam, seed):
        rng = np.random.default_rng(seed)
        h = self.random_band(rng, n, u)
        g = rng.normal(size=n)
        ab = upper_band(h, u)
        before = ab.copy()
        delta = solve_damped(ab, ab[-1], lam, g)
        expected = np.linalg.solve(h + lam * np.diag(np.diag(h)), -g)
        assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
        assert np.array_equal(ab, before)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 30),
        u=st.integers(0, 6),
        lam=st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_indefinite_band_returns_none(self, n, u, lam, seed):
        rng = np.random.default_rng(seed)
        h = self.random_band(rng, n, u)
        k = int(rng.integers(0, n))
        h[k, k] = -rng.uniform(0.1, 10.0)
        ab = upper_band(h, u)
        assert solve_damped(ab, ab[-1], lam, rng.normal(size=n)) is None

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        u=st.integers(0, 6),
        lam=st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 1e3]),
        indefinite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bundled_and_capsule_bindings_agree(self, n, u, lam, indefinite, seed):
        bundled = nls_solver._bundled_dpbsv()
        if bundled is None:
            pytest.skip("numpy bundles no OpenBLAS, so only the capsule binding exists")
        rng = np.random.default_rng(seed)
        h = self.random_band(rng, n, u)
        if indefinite:
            k = int(rng.integers(0, n))
            h[k, k] = -rng.uniform(0.1, 10.0)
        ab = upper_band(h, u)
        g = rng.normal(size=n)
        deltas = []
        for routine in (bundled, nls_solver._capsule_dpbsv()):
            with mock.patch.object(nls_solver, "_DPBSV", routine):
                deltas.append(solve_damped(ab, ab[-1], lam, g))
        if deltas[0] is None or deltas[1] is None:
            assert deltas[0] is None and deltas[1] is None
            assert indefinite
        else:
            assert deltas[0].tobytes() == deltas[1].tobytes()

    def test_solution_not_aliased_to_the_workspace(self):
        rng = np.random.default_rng(3)
        ab = upper_band(self.random_band(rng, 12, 3), 3)
        first = solve_damped(ab, ab[-1], 1e-3, rng.normal(size=12))
        kept = first.copy()
        second = solve_damped(ab, ab[-1], 1e-3, rng.normal(size=12))
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_band_shape_changes_between_calls(self):
        rng = np.random.default_rng(4)
        # a batch band growing by one 11-dimensional state per epoch, a
        # narrower band of the same bandwidth, then a single-epoch WLS band of
        # 5 columns (position and two clocks) and a window band again
        shapes = [(11 * k, 11) for k in range(1, 6)] + [(33, 11), (5, 4), (5, 4), (22, 11)]
        for n, u in shapes:
            h = self.random_band(rng, n, u)
            g = rng.normal(size=n)
            ab = upper_band(h, u)
            delta = solve_damped(ab, ab[-1], 1e-2, g)
            expected = np.linalg.solve(h + 1e-2 * np.diag(np.diag(h)), -g)
            assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("length", [1, 9, 11])
    def test_mismatched_gradient_raises(self, length):
        rng = np.random.default_rng(5)
        ab = upper_band(self.random_band(rng, 10, 2), 2)
        with pytest.raises(ValueError):
            solve_damped(ab, ab[-1], 1e-3, rng.normal(size=length))
        with pytest.raises(ValueError):
            solve_damped(ab, rng.normal(size=length), 1e-3, rng.normal(size=10))

    def test_threads_solve_concurrently(self):
        rng = np.random.default_rng(6)
        cases = []
        # bands of one shape, which one shared workspace would serve
        for _ in range(6):
            ab = upper_band(self.random_band(rng, 200, 11), 11)
            g = rng.normal(size=200)
            cases.append((ab, g, solve_damped(ab, ab[-1], 1e-3, g)))
        failures = []

        def worker(ab, g, expected):
            for _ in range(150):
                delta = solve_damped(ab, ab[-1], 1e-3, g)
                if delta is None or not np.array_equal(delta, expected):
                    failures.append(ab.shape)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=case) for case in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def test_sqrt_info_matches_inverse_covariance():
    var = np.array([0.25, 4.0, 9.0])
    s = sqrt_info_from_cov_diag(var)
    assert np.allclose(s.T @ s, np.diag(1.0 / var), atol=1e-10)
    with pytest.raises(ValueError):
        sqrt_info_from_cov_diag(np.array([1.0, -1.0]))


def dense_from_upper_band(ab):
    u, n = ab.shape[0] - 1, ab.shape[1]
    h = np.zeros((n, n))
    for k in range(u + 1):
        h += np.diag(ab[u - k, k:], k)
    return h + np.triu(h, 1).T


def relative_gap(actual, expected):
    return np.linalg.norm(np.asarray(actual) - expected) / np.linalg.norm(expected)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_full_sqrt_info_whitens_like_whitening_by_hand(seed):
    """A block whose sqrt_info is a full matrix gives the cost and normal
    equations of the same block whitened inside its residual and Jacobian."""
    rng = np.random.default_rng(seed)
    dims, m = [2, 3], 4
    blocks, by_hand = [], []
    for idx in ((0,), (1,), (0, 1)):
        mats = [rng.normal(size=(m, dims[i])) for i in idx]
        target = rng.normal(size=m)
        a = rng.normal(size=(m, m))
        sqrt_info = np.linalg.cholesky(np.linalg.inv(a @ a.T + m * np.eye(m))).T
        assert np.count_nonzero(np.triu(sqrt_info, 1)) > 0

        def fn(*xs, mats=mats, target=target):
            return sum(mat @ x for mat, x in zip(mats, xs)) - target

        blocks.append(ResidualBlock(idx, m, fn, sqrt_info, jac=lambda *xs, mats=mats: mats))
        by_hand.append(
            ResidualBlock(
                idx,
                m,
                lambda *xs, fn=fn, s=sqrt_info: s @ fn(*xs),
                np.eye(m),
                jac=lambda *xs, mats=mats, s=sqrt_info: [s @ mat for mat in mats],
            )
        )
    x = rng.normal(size=sum(dims))
    full = NlsProblem(dims, blocks, x)
    hand = NlsProblem(dims, by_hand, x)
    assert full.cost(x) == pytest.approx(hand.cost(x), rel=1e-12)
    (ab, g, cost), (ab_hand, g_hand, cost_hand) = full.normal_equations(x), hand.normal_equations(x)
    assert cost == pytest.approx(cost_hand, rel=1e-12)
    assert relative_gap(dense_from_upper_band(ab), dense_from_upper_band(ab_hand)) <= 1e-12
    assert relative_gap(g, g_hand) <= 1e-12
