"""Levenberg-Marquardt solver over block-structured nonlinear least squares.

:func:`solve_lm` works on any problem that, at a point ``x``, returns its
whitened normal equations ``(H, g, cost)`` from ``normal_equations(x)``, with
``H = J^T J`` in upper band storage and ``g = J^T r``, and its cost alone from
``cost(x)``. Every damped system is solved with one banded Cholesky
factorization, whose bandwidth comes from the problem's structure.

:class:`NlsProblem` is the general form: state slots plus residual blocks;
each block binds a few slots to a residual function, optional analytic
Jacobians and a whitening matrix (inverse Cholesky factor of the block
covariance). It assembles the normal equations block by block, and its
bandwidth follows from the slots each block spans. ``fgo.FactorWindow``
provides the same interface from stacked arrays.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import scipy
import scipy.linalg


def _single_thread_banded_lapack() -> None:
    """Run scipy's bundled OpenBLAS, which ``solve_damped`` uses, on one thread.

    The bands solved here are a few hundred columns wide. On the default pool
    (one thread per CPU) ``cholesky_banded`` runs several times slower, and a
    cold process can stall for tenths of a second per epoch. Environment
    variables are read only when the library loads, which may already have
    happened, so the pool is set through the library's own call. A build
    without that call keeps its default.
    """
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            ctypes.CDLL(str(path)).scipy_openblas_set_num_threads(1)
        except (OSError, AttributeError):
            continue


_single_thread_banded_lapack()


class EvaluationError(ValueError):
    """A residual evaluated to a non-finite value."""


class SolverError(RuntimeError):
    """Normal equations stayed singular up to the damping ceiling."""


@dataclass
class ResidualBlock:
    """One weighted residual term.

    ``fn(*states)`` returns the raw residual (length ``dim``); ``jac``
    returns one Jacobian per bound state and may be None to fall back to
    central differences. ``sqrt_info`` whitens residual and Jacobians, so
    ``sqrt_info.T @ sqrt_info`` equals the inverse block covariance.
    """

    state_indices: tuple[int, ...]
    dim: int
    fn: Callable[..., np.ndarray]
    sqrt_info: np.ndarray
    jac: Optional[Callable[..., list[np.ndarray]]] = None
    label: str = ""

    def __post_init__(self) -> None:
        self.sqrt_info = np.asarray(self.sqrt_info, dtype=float)
        # diagonal whitening is by far the common case; cache the diagonal
        # so the solver can whiten with elementwise products
        if self.sqrt_info.ndim == 2 and np.count_nonzero(
            self.sqrt_info - np.diag(np.diagonal(self.sqrt_info))
        ) == 0:
            self._diag_info = np.diagonal(self.sqrt_info).copy()
        else:
            self._diag_info = None

    def whiten_residual(self, r: np.ndarray) -> np.ndarray:
        if self._diag_info is not None:
            return self._diag_info * r
        return self.sqrt_info @ r

    def whiten_jacobian(self, j: np.ndarray) -> np.ndarray:
        if self._diag_info is not None:
            return self._diag_info[:, None] * j
        return self.sqrt_info @ j


@dataclass
class NlsProblem:
    state_dims: list[int]
    blocks: list[ResidualBlock]
    initial_values: np.ndarray

    def __post_init__(self) -> None:
        self.initial_values = np.asarray(self.initial_values, dtype=float)
        self.offsets = np.concatenate(([0], np.cumsum(self.state_dims)))
        if self.initial_values.size != self.offsets[-1]:
            raise ValueError(
                f"initial values have size {self.initial_values.size}, "
                f"expected {self.offsets[-1]}"
            )
        span = 1
        for b in self.blocks:
            for idx in b.state_indices:
                if not 0 <= idx < len(self.state_dims):
                    raise ValueError(f"block {b.label!r} references unknown slot {idx}")
            span = max(
                span,
                self.offsets[max(b.state_indices) + 1] - self.offsets[min(b.state_indices)],
            )
        # a block couples every column of the slots it spans, so no entry of
        # J^T J lies further than the widest span from the diagonal
        self.bandwidth = int(span) - 1

    @property
    def total_dim(self) -> int:
        return int(self.offsets[-1])

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        return [values[self.offsets[i] : self.offsets[i + 1]] for i in range(len(self.state_dims))]

    def cost(self, values: np.ndarray) -> float:
        """Sum of squared whitened residuals over all blocks."""
        parts = self.split(values)
        cost = 0.0
        for block in self.blocks:
            rw = block.whiten_residual(block.fn(*[parts[i] for i in block.state_indices]))
            cost += float(rw @ rw)
        if not np.isfinite(cost):
            _raise_nonfinite(self, parts)
        return cost

    def normal_equations(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Whitened J^T J (upper band storage), J^T r and cost, block by block."""
        n = self.total_dim
        h_mat = np.zeros((n, n))
        g = np.zeros(n)
        cost = 0.0
        parts = self.split(values)
        for block in self.blocks:
            states = [parts[i] for i in block.state_indices]
            jacs = _block_jacobians(block, states)
            rw = block.whiten_residual(block.fn(*states))
            cost += float(rw @ rw)
            jws = [block.whiten_jacobian(j) for j in jacs]
            for a, ia in enumerate(block.state_indices):
                sl_a = slice(self.offsets[ia], self.offsets[ia + 1])
                g[sl_a] += jws[a].T @ rw
                for b, ib in enumerate(block.state_indices):
                    h_mat[sl_a, self.offsets[ib] : self.offsets[ib + 1]] += jws[a].T @ jws[b]
        if not np.isfinite(cost):
            _raise_nonfinite(self, parts)
        return upper_band(h_mat, self.bandwidth), g, cost


@dataclass
class LmConfig:
    """Damping schedule and stop rules of :func:`solve_lm`.

    The damping is relative to ``diag(J^T J)`` and every stop test compares
    dimensionless ratios, so scaling all block covariances by one factor
    changes neither the iterates nor the stop decision.
    """

    lambda0: float = 1e-6
    """Initial damping, relative to ``diag(J^T J)``. Small because windows
    start warm: Madsen, Nielsen & Tingleff (2004, §3.2) recommend 1e-6 when
    the initial guess is already good. A poor guess costs rejected steps
    while the damping grows."""
    lambda_max: float = 1e10
    """Damping ceiling; past it a step that cannot lower the cost ends the
    solve, and normal equations that stay singular raise SolverError."""
    tol: float = 1e-8
    """Stop once an accepted step lowers the cost, or a rejected step raises
    it, by less than this fraction of the cost before it."""
    gtol: float = 1e-8
    """Stop once every column of the whitened Jacobian is this close to
    orthogonal to the whitened residual: ``max_i |g_i| / sqrt(H_ii * cost)``
    (MINPACK's cosine test), with ``g = J^T r`` and ``H = J^T J``. A cost of
    zero also counts as converged."""
    max_iters: int = 100
    """Ceiling on the number of linearizations (accepted or final steps)."""


@dataclass
class SolveReport:
    values: np.ndarray
    cost: float
    iterations: int
    converged: bool
    cost_trace: list[float] = field(default_factory=list)
    jacobian_evals: int = 0
    message: str = ""


def total_cost(problem, values: np.ndarray) -> float:
    """Sum of squared whitened residuals of ``problem`` at ``values``."""
    return problem.cost(np.asarray(values, dtype=float))


def upper_band(h_mat: np.ndarray, bandwidth: int) -> np.ndarray:
    """Upper band storage of a symmetric matrix, as ``scipy.linalg.cholesky_banded``
    takes it: ``ab[bandwidth + i - j, j] = h_mat[i, j]`` for ``i <= j``."""
    n = h_mat.shape[0]
    ab = np.zeros((bandwidth + 1, n))
    for k in range(bandwidth + 1):
        ab[bandwidth - k, k:] = np.diagonal(h_mat, k)
    return ab


def _raise_nonfinite(problem: NlsProblem, parts: list[np.ndarray]) -> None:
    for block in problem.blocks:
        r = np.asarray(block.fn(*[parts[i] for i in block.state_indices]), dtype=float)
        if not np.all(np.isfinite(r)):
            raise EvaluationError(f"non-finite residual in block {block.label!r}")
    raise EvaluationError("non-finite cost")


def numeric_jacobian(
    block: ResidualBlock, states: Sequence[np.ndarray], h: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian of the raw residual w.r.t. the block states.

    Columns follow the concatenation of the block's bound states.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    states = [np.array(s, dtype=float) for s in states]
    cols = []
    for si, s in enumerate(states):
        for j in range(s.size):
            orig = s[j]
            s[j] = orig + h
            plus = np.asarray(block.fn(*states), dtype=float)
            s[j] = orig - h
            minus = np.asarray(block.fn(*states), dtype=float)
            s[j] = orig
            cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def _block_jacobians(block: ResidualBlock, states: list[np.ndarray]) -> list[np.ndarray]:
    if block.jac is not None:
        return [np.asarray(j, dtype=float) for j in block.jac(*states)]
    full = numeric_jacobian(block, states)
    out = []
    col = 0
    for s in states:
        out.append(full[:, col : col + s.size])
        col += s.size
    return out


def solve_damped(ab: np.ndarray, diag: np.ndarray, lam: float, g: np.ndarray):
    """Solve (H + lam*diag) delta = -g for H in upper band storage.

    Returns None when the damped matrix is not positive definite.
    """
    damped = ab.copy()
    damped[-1] += lam * diag
    try:
        factor = scipy.linalg.cholesky_banded(damped, overwrite_ab=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    return scipy.linalg.cho_solve_banded((factor, False), -g, check_finite=False)


def _gradient_converged(g: np.ndarray, diag: np.ndarray, cost: float, gtol: float) -> bool:
    """MINPACK's scale-free gradient test (see ``LmConfig.gtol``).

    Columns with ``H_ii == 0`` touch no residual, so their ``g_i`` is zero
    too; they are left out of the maximum.
    """
    if cost <= 0.0:
        return True
    live = diag > 0.0
    cosines = np.abs(g[live]) / np.sqrt(diag[live] * cost)
    return bool(np.all(cosines <= gtol))


def solve_lm(problem, cfg: Optional[LmConfig] = None) -> SolveReport:
    """Minimize the whitened squared-residual cost with Levenberg-Marquardt.

    ``problem`` is an :class:`NlsProblem` or anything with the same
    ``initial_values``, ``normal_equations`` and ``cost``; trial steps are
    scored with :func:`total_cost`.

    Jacobians are recomputed at every accepted iterate; a step is accepted
    only when it lowers the cost, otherwise the damping grows tenfold. The
    solve stops, in the order tested, when

    * ``"gradient below gtol"``: the cosine gradient test of
      ``LmConfig.gtol`` holds at the current iterate (before any step, so an
      optimum is returned after 0 iterations);
    * ``"step size negligible"``: a rejected step is below 1e-15 of
      ``1 + |x|``, so ``x`` cannot move in floating point;
    * ``"relative cost change below tol"``: a rejected step raised the cost
      by at most ``LmConfig.tol`` of its value, a tie within rounding;
    * ``"damping exceeded maximum without improvement"``: no step lowered
      the cost up to ``LmConfig.lambda_max`` (not converged);
    * ``"relative cost change below tol"``: an accepted step lowered the
      cost by less than ``LmConfig.tol`` of its previous value;
    * ``"max iterations reached"`` after ``LmConfig.max_iters`` steps,
      converged only if the gradient test then holds.

    Every test is a ratio of like quantities, so none depends on the scale
    of the covariances.
    """
    cfg = cfg or LmConfig()
    x = problem.initial_values.astype(float).copy()
    lam = cfg.lambda0
    ab, g, cost = problem.normal_equations(x)
    diag = ab[-1]
    jacobian_evals = 1
    trace = [cost]
    if not np.isfinite(cost):
        raise EvaluationError("non-finite initial cost")

    iterations = 0
    converged = False
    message = "max iterations reached"
    for _ in range(cfg.max_iters):
        if _gradient_converged(g, diag, cost, cfg.gtol):
            converged = True
            message = "gradient below gtol"
            break
        iterations += 1
        accepted = False
        while True:
            delta = solve_damped(ab, diag, lam, g)
            if delta is None:
                lam *= 10.0
                if lam > cfg.lambda_max:
                    raise SolverError(
                        f"normal equations singular up to lambda={cfg.lambda_max:g}"
                    )
                continue
            candidate = x + delta
            new_cost = total_cost(problem, candidate)
            if new_cost < cost:
                accepted = True
                break
            if np.linalg.norm(delta) <= 1e-15 * (1.0 + np.linalg.norm(x)):
                message = "step size negligible"
                converged = True
                break
            if new_cost - cost <= cfg.tol * cost:
                # a rise this small is rounding: the cost is flat here
                message = "relative cost change below tol"
                converged = True
                break
            lam *= 10.0
            if lam > cfg.lambda_max:
                message = "damping exceeded maximum without improvement"
                break
        if not accepted:
            break
        x = candidate
        rel_drop = (cost - new_cost) / max(cost, 1e-300)
        # drop the damping faster when the quadratic model matched the actual
        # decrease. A step damped by lam leaves about lam * cond(H) of the
        # error of a linear problem, so the first (lambda0) and second
        # (lambda0 / 100) steps reach the closed form to rounding when H is
        # well conditioned, and the second then stops on tol
        predicted = float(delta @ (lam * diag * delta - g))
        ratio = (cost - new_cost) / predicted if predicted > 0 else 0.0
        cost = new_cost
        trace.append(cost)
        lam = max(lam / (100.0 if ratio > 0.75 else 10.0), 1e-15)
        ab, g, cost = problem.normal_equations(x)
        diag = ab[-1]
        jacobian_evals += 1
        if rel_drop < cfg.tol:
            converged = True
            message = "relative cost change below tol"
            break
    else:
        if _gradient_converged(g, diag, cost, cfg.gtol):
            converged = True
            message = "gradient below gtol"

    return SolveReport(
        values=x,
        cost=cost,
        iterations=iterations,
        converged=converged,
        cost_trace=trace,
        jacobian_evals=jacobian_evals,
        message=message,
    )


def sqrt_info_from_cov_diag(variances: np.ndarray) -> np.ndarray:
    """Whitening matrix for a diagonal covariance given as variances."""
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("variances must be positive")
    return np.diag(1.0 / np.sqrt(variances))
