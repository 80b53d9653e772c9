import numpy as np
import pytest

from gnssins.nls_solver import (
    EvaluationError,
    LmConfig,
    NlsProblem,
    ResidualBlock,
    SolverError,
    numeric_jacobian,
    solve_lm,
    sqrt_info_from_cov_diag,
    total_cost,
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

    def test_large_problem_matches_closed_form(self):
        rng = np.random.default_rng(6)
        problem, mats = linear_problem(rng, n_states=80, state_dim=9, n_blocks=200)
        assert problem.total_dim == 720  # a batch-sized system on the banded path
        report = solve_lm(problem)
        expected = closed_form(problem, mats, 80, 9)
        assert np.allclose(report.values, expected, atol=1e-8)


def test_sqrt_info_matches_inverse_covariance():
    var = np.array([0.25, 4.0, 9.0])
    s = sqrt_info_from_cov_diag(var)
    assert np.allclose(s.T @ s, np.diag(1.0 / var), atol=1e-10)
    with pytest.raises(ValueError):
        sqrt_info_from_cov_diag(np.array([1.0, -1.0]))
