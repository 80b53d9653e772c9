"""Levenberg-Marquardt solver over block-structured nonlinear least squares.

:func:`solve_lm` works on any problem that, at a point ``x``, returns its
whitened normal equations ``(H, g, cost)`` from ``normal_equations(x)``, with
``H = J^T J`` in upper band storage and ``g = J^T r``, and its cost alone from
``cost(x)``. Every damped system is solved by one LAPACK call, a banded
Cholesky factorization and solve, whose bandwidth is the number of rows the
problem's band holds.

That routine, ``dpbsv``, is bound once, at import, with ctypes. It comes from
the OpenBLAS that numpy bundles (``numpy.libs/libscipy_openblas64_*.so``,
built with 64-bit integers), which importing numpy has already loaded, so
the process holds one BLAS library and this module does not load
``scipy.linalg`` and the packages it brings. The same handle caps that
library's thread pool at one thread, numpy's own BLAS calls included. An
install without the bundled library takes the routine's address from
``scipy.linalg.cython_lapack`` instead, with 32-bit integers, and pays for
importing it. Both are called the same way, through a per-thread workspace
of buffers that are reused from call to call.

:class:`NlsProblem` is the general form: state slots plus residual blocks;
each block binds a few slots to a residual function, optional analytic
Jacobians and a whitening matrix (inverse Cholesky factor of the block
covariance). It assembles the normal equations block by block, and its
bandwidth follows from the slots each block spans. ``fgo.FactorWindow``
provides the same interface from stacked arrays.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

# dpbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb, info), every argument passed by
# address and no hidden string length, as scipy's cython_lapack declares it
_DPBSV_TYPE = ctypes.CFUNCTYPE(None, *(ctypes.c_void_p,) * 9)


class _Routine(NamedTuple):
    """A bound ``dpbsv`` and the ctypes integer its integer arguments are."""

    call: Callable
    integer: type


def _bundled_dpbsv() -> Optional[_Routine]:
    """``dpbsv`` from numpy's bundled OpenBLAS, run on one thread; None when
    numpy bundles no OpenBLAS.

    The bands solved here are a few hundred columns wide. On the default pool
    (one thread per CPU) the banded Cholesky runs several times slower, and a
    cold process can stall for tenths of a second per epoch. Environment
    variables are read only when the library loads, which importing numpy
    has done, so the pool is set through the library's own call; numpy's
    matrix products then run on one thread too. A build without that call
    keeps its default.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            dpbsv = _DPBSV_TYPE(("scipy_dpbsv_64_", lib))
        except (OSError, AttributeError):
            continue
        try:
            ctypes.CFUNCTYPE(None, ctypes.c_int)(("scipy_openblas_set_num_threads64_", lib))(1)
        except AttributeError:
            pass
        return _Routine(dpbsv, ctypes.c_int64)
    return None


def _capsule_dpbsv() -> _Routine:
    """``dpbsv`` from ``scipy.linalg.cython_lapack``, which exports each
    routine's address in a capsule named after its C signature."""
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule = __pyx_capi__["dpbsv"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return _Routine(_DPBSV_TYPE(get_pointer(capsule, get_name(capsule))), ctypes.c_int)


_DPBSV = _bundled_dpbsv() or _capsule_dpbsv()


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
            rw = block.sqrt_info @ block.fn(*[parts[i] for i in block.state_indices])
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
            rw = block.sqrt_info @ block.fn(*states)
            cost += float(rw @ rw)
            jws = [block.sqrt_info @ j for j in jacs]
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
    """Initial damping, relative to ``diag(J^T J)``, set by how far the start
    is trusted (Madsen, Nielsen & Tingleff 2004, §3.2). This default suits a
    cold solve: :func:`fgo.single_epoch_wls`, which may start from the
    Earth's centre, and the stacked LC fixes. A window solve starts warm,
    one INS step from its last solution, and ``harness.RunConfig.lm`` gives
    it 1e-10. At a linear problem's minimum, a step damped by ``lambda0``
    leaves a gradient cosine of about ``lambda0`` times the step whitened by
    ``sqrt(H_ii / cost)``, so only a ``lambda0`` below ``gtol`` lets the
    first step pass the gradient test; from 1e-6, a solve needs a second
    linearization. A poor guess costs rejected steps while the damping
    grows."""
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
    """Upper band storage of a symmetric matrix, as LAPACK's ``dpbsv`` takes
    it: ``ab[bandwidth + i - j, j] = h_mat[i, j]`` for ``i <= j``.

    A stack of ``n``-square matrices (``(..., n, n)``) gives the band of their
    block-diagonal matrix, in stack order; its entries between blocks are
    zero as long as ``bandwidth < n``.
    """
    n = h_mat.shape[-1]
    ab = np.zeros((bandwidth + 1, *h_mat.shape[:-2], n))
    for k in range(bandwidth + 1):
        ab[bandwidth - k, ..., k:] = np.diagonal(h_mat, k, axis1=-2, axis2=-1)
    return ab.reshape(bandwidth + 1, -1)


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


class _Workspace:
    """The buffers a ``dpbsv`` call reads and writes, for bands of ``rows``
    rows and up to ``capacity`` columns, and the argument tuple that points
    LAPACK at them.

    A band of ``n`` columns uses the first ``n`` columns of the band buffer:
    in column-major order they are contiguous and keep the leading dimension,
    so a band that grows (a batch graph, a window filling up) changes only
    the values of ``n`` and ``ldb``.
    """

    def __init__(self, rows: int, capacity: int, routine: _Routine):
        self.rows = rows
        self.capacity = capacity
        self.routine = routine
        self.band = np.empty((rows, capacity), order="F")
        self.rhs_buffer = np.empty(capacity)
        integer = routine.integer
        self.n = integer(-1)
        self.ldb = integer()
        self.info = integer()
        # uplo, kd, nrhs and ldab never change; kept so their addresses stay valid
        self._fixed = (ctypes.c_char(b"U"), integer(rows - 1), integer(1), integer(rows))
        uplo, kd, nrhs, ldab = (ctypes.addressof(c) for c in self._fixed)
        self.args = tuple(
            ctypes.c_void_p(address)
            for address in (
                uplo, ctypes.addressof(self.n), kd, nrhs, self.band.ctypes.data, ldab,
                self.rhs_buffer.ctypes.data, ctypes.addressof(self.ldb),
                ctypes.addressof(self.info),
            )
        )

    def use(self, n: int) -> None:
        """Point the views and the arguments at the first ``n`` columns."""
        self.n.value = n
        self.ldb.value = max(n, 1)
        self.damped = self.band[:, :n]
        self.diagonal = self.damped[-1]
        self.rhs = self.rhs_buffer[:n]


# one workspace per thread: LAPACK runs without the interpreter lock, so
# threads sharing buffers would overwrite each other's band mid-solve
_local = threading.local()


def _workspace(shape: tuple[int, ...]) -> _Workspace:
    """The calling thread's workspace for ``_DPBSV``, fitted to a band of ``shape``.

    One is enough: a run solves bands of one shape over and over (the
    window's, or a single epoch's), and a batch band only grows. A band
    wider than the buffers doubles them.
    """
    rows, n = shape
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.routine is not _DPBSV or ws.rows != rows or ws.capacity < n:
        grown = 2 * ws.capacity if ws is not None and ws.rows == rows else 0
        ws = _local.workspace = _Workspace(rows, max(n, grown), _DPBSV)
    if ws.n.value != n:
        ws.use(n)
    return ws


def solve_damped(ab: np.ndarray, diag: np.ndarray, lam: float, g: np.ndarray):
    """Solve (H + lam*diag) delta = -g for H in upper band storage, with
    ``ab.shape[0] - 1`` super-diagonals, by one LAPACK ``dpbsv`` call (banded
    Cholesky factorization, then the two triangular solves).

    Returns None when the damped matrix is not positive definite, and raises
    ValueError when ``diag`` or ``g`` does not match the band's columns.
    """
    ws = _workspace(ab.shape)
    if g.shape != ws.rhs.shape or diag.shape != ws.rhs.shape:
        raise ValueError(f"band has {ws.rhs.size} columns, diag {diag.shape} and g {g.shape}")
    ws.damped[...] = ab
    ws.diagonal += lam * diag
    np.negative(g, out=ws.rhs)
    ws.routine.call(*ws.args)
    info = ws.info.value
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbsv")
    return None if info > 0 else ws.rhs.copy()


def _gradient_converged(g: np.ndarray, diag: np.ndarray, cost: float, gtol: float) -> bool:
    """MINPACK's scale-free gradient test (see ``LmConfig.gtol``), squared:
    ``g_i^2 <= gtol^2 * H_ii * cost`` for every column.

    Columns with ``H_ii == 0`` touch no residual, so their ``g_i`` is zero
    too and they pass.
    """
    if cost <= 0.0:
        return True
    return bool((g * g <= (gtol * gtol * cost) * diag).all())


def solve_lm(problem, cfg: Optional[LmConfig] = None) -> SolveReport:
    """Minimize the whitened squared-residual cost with Levenberg-Marquardt.

    ``problem`` is an :class:`NlsProblem` or anything with the same
    ``initial_values``, ``normal_equations`` and ``cost``; trial steps are
    scored with :func:`total_cost`.

    Jacobians are recomputed at every accepted iterate, except one whose
    step already ends the solve on ``LmConfig.tol``; a step is accepted only
    when it lowers the cost, otherwise the damping grows tenfold. The solve
    stops, in the order tested, when

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
    x = np.array(problem.initial_values, dtype=float)
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
        # error of a linear problem, and a gradient cosine of about lam times
        # the whitened step: a warm start below gtol (a window's 1e-10) then
        # stops on the gradient test after one step, and a cold one (1e-6)
        # reaches the closed form on its second step (lam / 100), which
        # then stops on tol
        predicted = float(delta @ (lam * diag * delta - g))
        ratio = (cost - new_cost) / predicted if predicted > 0 else 0.0
        cost = new_cost
        trace.append(cost)
        if rel_drop < cfg.tol:
            # stop before relinearizing: nothing would read that H and g
            converged = True
            message = "relative cost change below tol"
            break
        lam = max(lam / (100.0 if ratio > 0.75 else 10.0), 1e-15)
        ab, g, cost = problem.normal_equations(x)
        diag = ab[-1]
        jacobian_evals += 1
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
