"""Levenberg-Marquardt solver over block-structured nonlinear least squares.

:func:`solve_lm` works on any problem that, at a point ``x``, returns its
whitened normal equations ``(H, g, cost)`` from ``normal_equations(x)``, with
``H = J^T J`` in upper band storage and ``g = J^T r``, its gradient and cost
alone ``(g, cost)`` from ``gradient(x)``, and its cost alone from
``cost(x)``. Every damped system is factored by a banded Cholesky
factorization whose bandwidth is the number of rows the problem's band
holds, and one factor serves at most two steps: the one it was made for,
and one more from the exact gradient at the point that step reached. A
problem whose residuals are linear in ``x`` says so with ``linear = True``:
its minimum is one undamped Gauss–Newton step from any start, so
:func:`solve_lm` takes that one step and no LM iteration.

Two LAPACK routines are bound, with the same nine arguments: ``dpbsv``
factors a band and solves one system against it, and ``dpbtrs`` solves
another right-hand side against the factor ``dpbsv`` left (``dpbsv`` is
``dpbtrf`` then ``dpbtrs``, so both give the same bytes). A dense symmetric
positive-definite matrix is a band with one super-diagonal fewer than its
order, so :func:`solve_spd`, the filter's gain, calls ``dpbsv`` too. Both are
bound once, at import, with ctypes, from the OpenBLAS that numpy bundles
(``numpy.libs/libscipy_openblas64_*.so``, built with 64-bit integers), which
importing numpy has already loaded, so the process holds one BLAS library
and this module does not load ``scipy.linalg`` and the packages it brings.
The same handle caps that library's thread pool at one thread, numpy's own
BLAS calls included. An install without the bundled library takes their
addresses from ``scipy.linalg.cython_lapack`` instead, with 32-bit integers,
and pays for importing it.

Every call goes through one per-thread workspace, whose buffers are reused
from call to call. :func:`solve_damped` returns with its step a handle on
the factor it left there (:class:`KeptFactor`), which serves further
right-hand sides (:func:`solve_kept`) until the thread's next solve reuses
the buffers, and then raises.

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

from .types import check_numbers

# dpbsv and dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info), every argument
# passed by address and no hidden string length, as scipy's cython_lapack
# declares them
_SIGNATURE = ctypes.CFUNCTYPE(None, *(ctypes.c_void_p,) * 9)
_ROUTINES = ("dpbsv", "dpbtrs")


class _Routines(NamedTuple):
    """The bound ``dpbsv`` and ``dpbtrs``, and the ctypes integer their
    integer arguments are."""

    dpbsv: Callable
    dpbtrs: Callable
    integer: type


def _bundled_lapack() -> Optional[_Routines]:
    """LAPACK's ``dpbsv`` and ``dpbtrs`` from numpy's bundled OpenBLAS, run on
    one thread; None when numpy bundles no OpenBLAS.

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
            routines = [_SIGNATURE((f"scipy_{name}_64_", lib)) for name in _ROUTINES]
        except (OSError, AttributeError):
            continue
        try:
            ctypes.CFUNCTYPE(None, ctypes.c_int)(("scipy_openblas_set_num_threads64_", lib))(1)
        except AttributeError:
            pass
        return _Routines(*routines, ctypes.c_int64)
    return None


def _capsule_lapack() -> _Routines:
    """LAPACK's ``dpbsv`` and ``dpbtrs`` from ``scipy.linalg.cython_lapack``,
    which exports each routine's address in a capsule named after its C
    signature."""
    from scipy.linalg.cython_lapack import __pyx_capi__

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsules = [__pyx_capi__[name] for name in _ROUTINES]
    return _Routines(
        *(_SIGNATURE(get_pointer(c, get_name(c))) for c in capsules), ctypes.c_int
    )


_LAPACK = _bundled_lapack() or _capsule_lapack()


# the stop reason of a linear problem's one Gauss–Newton step (solve_lm)
LINEAR_STOP = "linear: one Gauss-Newton step"


class EvaluationError(ValueError):
    """A residual evaluated to a non-finite value."""


class SolverError(RuntimeError):
    """Normal equations stayed singular up to the damping ceiling, or those
    of a linear problem are not positive definite."""


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

    def gradient(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Whitened J^T r and cost, from :meth:`normal_equations`."""
        _, g, cost = self.normal_equations(values)
        return g, cost


@dataclass(frozen=True)
class LmConfig:
    """Damping schedule and stop rules of :func:`solve_lm`, checked when made
    and fixed after.

    The damping is relative to ``diag(J^T J)`` and every stop test compares
    dimensionless ratios, so scaling all block covariances by one factor
    changes neither the iterates nor the stop decision.
    """

    lambda0: float = 1e-10
    """Initial damping, relative to ``diag(J^T J)``, set by how far the start
    is trusted (Madsen, Nielsen & Tingleff 2004, §3.2). 1e-10 is the warm
    start every window solve takes: a TC window starts one INS step from its
    last solution, and near a minimum a step damped by ``lambda0`` leaves a
    gradient cosine of about ``lambda0`` times the step whitened by
    ``sqrt(H_ii / cost)``, so only a ``lambda0`` below ``gtol`` lets the
    first step pass that test. An LC window (linear) and the WLS fixes
    (:meth:`fgo.EpochWls.solve`) take Gauss–Newton steps and read no damping.
    A cold solve, such as a test's oracle from a poor guess, pays for it in
    rejected steps while the damping grows."""
    lambda_max: float = 1e10
    """Damping ceiling; past it a step that cannot lower the cost ends the
    solve, and normal equations that stay singular raise SolverError."""
    tol: float = 1e-8
    """Stop once an accepted step lowers the cost, or a rejected step raises
    it, by less than this fraction of the cost before it."""
    gtol: float = 1e-8
    """Stop once every column of the whitened Jacobian is this close to
    orthogonal to the whitened residual: ``max_i |g_i| / sqrt(H_ii * cost)``
    (MINPACK's cosine test), with ``g = J^T r`` at the point tested and
    ``H_ii`` the diagonal of a band: at a point linearized for its band, that
    band's own; at a point linearized for its gradient alone, that of the band
    factored for the step that reached it (``KeptFactor.diag``, see
    :func:`solve_lm`). A cost of zero also counts as converged."""
    max_iters: int = 100
    """Ceiling on the number of steps (accepted or final), each from a fresh
    or a kept factor; a point can be linearized twice, once for its gradient
    and once for its band, and counts once."""

    def __post_init__(self) -> None:
        check_numbers(self)
        # a damping of zero never grows, so a singular band would be retried
        # forever; lambda_max below lambda0 is allowed and stops at once
        for name in ("lambda0", "lambda_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("tol", "gtol", "max_iters"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


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
    it: ``ab[bandwidth + i - j, j] = h_mat[i, j]`` for ``i <= j``."""
    ab = np.zeros((bandwidth + 1, len(h_mat)))
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


class _Workspace:
    """The buffers a ``dpbsv`` or ``dpbtrs`` call reads and writes, the
    argument tuple that points LAPACK at them, and the views a system is
    written through.

    Every integer argument is a value set per shape, so a system of another
    shape changes only those values and the views; the flat band and
    right-hand-side buffers double when either is too small.

    * A band of ``rows`` rows and ``n`` columns (:func:`solve_damped`) fills
      the band buffer's first ``rows * n`` entries in column-major order,
      ``ldab = rows``, with one right-hand side. ``dpbsv`` leaves the band's
      Cholesky factor there, which ``dpbtrs`` reads (:func:`solve_kept`).
    * A dense ``m``-square matrix (:func:`solve_spd`) is a band with
      ``kd = m - 1`` super-diagonals, and at ``ldab = m + 1`` its C-order
      entries, copied as one block from band entry ``m - 1``, are the upper
      band of its transpose: LAPACK reads the matrix's lower triangle. The
      ``k`` rows of the right-hand side are its columns.

    ``generation`` counts the systems written into the buffers, so a
    :class:`KeptFactor` whose generation is not the current one is stale.
    """

    def __init__(self, routines: _Routines):
        self.routines, self.shape = routines, None
        self.generation = 0
        self.n, self.kd, self.nrhs, self.ldab, self.ldb, self.info = (
            routines.integer() for _ in range(6)
        )
        self._uplo = ctypes.c_char(b"U")  # kept so that its address stays valid
        self._allocate(0, 0)

    def _allocate(self, band_size: int, rhs_size: int) -> None:
        self.band_buffer, self.rhs_buffer = np.empty(band_size), np.empty(rhs_size)
        address = ctypes.addressof
        self.args = tuple(
            map(ctypes.c_void_p, (
                address(self._uplo), address(self.n), address(self.kd), address(self.nrhs),
                self.band_buffer.ctypes.data, address(self.ldab),
                self.rhs_buffer.ctypes.data, address(self.ldb), address(self.info),
            ))
        )

    def use(self, shape: tuple[int, ...]) -> None:
        """Point the arguments and the views at a band of ``shape``
        ``(rows, n)``, or at a dense system whose matrix and right-hand rows
        have the shapes ``shape = (m, m, k, m)``."""
        if len(shape) == 2:
            rows, n = shape
            kd, nrhs, ldab = rows - 1, 1, rows
        else:
            n, _, nrhs, _ = shape
            kd, ldab = n - 1, n + 1
        if self.band_buffer.size < ldab * n or self.rhs_buffer.size < n * nrhs:
            self._allocate(
                max(ldab * n, 2 * self.band_buffer.size), max(n * nrhs, 2 * self.rhs_buffer.size)
            )
        self.n.value, self.kd.value, self.nrhs.value = n, kd, nrhs
        self.ldab.value, self.ldb.value = ldab, max(n, 1)
        if len(shape) == 2:
            self.band = self.band_buffer[: ldab * n].reshape((ldab, n), order="F")
            self.diagonal = self.band[-1]
            self.rhs = self.rhs_buffer[:n]
        else:
            self.band = self.band_buffer[kd : kd + n * n].reshape(n, n)
            self.rhs = self.rhs_buffer[: n * nrhs].reshape(nrhs, n)
        self.shape = shape

    def call(self, name: str) -> int:
        """Run the routine ``name`` on the buffers and return its ``info``."""
        getattr(self.routines, name)(*self.args)
        info = self.info.value
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of {name}")
        return info


# one workspace per thread: LAPACK runs without the interpreter lock, so
# threads sharing buffers would overwrite each other's band mid-solve
_local = threading.local()


def _workspace(shape: tuple[int, ...]) -> _Workspace:
    """The calling thread's workspace for ``_LAPACK``, pointed at ``shape``
    (see :meth:`_Workspace.use`) for a new system, which ends the life of
    any factor kept there.

    One is enough: a run solves systems of one shape over and over (the
    window's band, or the filter's few gain systems), and a batch band only
    grows.
    """
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.routines is not _LAPACK:
        ws = _local.workspace = _Workspace(_LAPACK)
    if ws.shape != shape:
        ws.use(shape)
    ws.generation += 1
    return ws


class KeptFactor(NamedTuple):
    """The factor of ``H + lam*diag(diag)`` that a :func:`solve_damped` call
    left in its thread's workspace: the workspace and its generation at that
    call, and the damping ``lam`` and diagonal ``diag`` (the band's own
    ``ab[-1]``, not a copy) of the matrix it factored."""

    workspace: _Workspace
    generation: int
    lam: float
    diag: np.ndarray


def solve_damped(ab: np.ndarray, lam: float, g: np.ndarray):
    """Solve (H + lam*diag(H)) delta = -g for H in upper band storage, with
    ``ab.shape[0] - 1`` super-diagonals and diagonal ``ab[-1]``, by one LAPACK
    ``dpbsv`` call (banded Cholesky factorization, then the two triangular
    solves).

    Returns ``(delta, factor)``, ``factor`` the :class:`KeptFactor` of the
    damped matrix, or None when that matrix is not positive definite; raises
    ValueError when ``g`` does not match the band's columns.
    """
    ws = _workspace(ab.shape)
    if g.shape != ws.rhs.shape:
        raise ValueError(f"band has {ws.rhs.size} columns, g {g.shape}")
    ws.band[...] = ab
    ws.diagonal += lam * ab[-1]
    np.negative(g, out=ws.rhs)
    if ws.call("dpbsv"):
        return None
    return ws.rhs.copy(), KeptFactor(ws, ws.generation, lam, ab[-1])


def solve_kept(factor: KeptFactor, g: np.ndarray) -> np.ndarray:
    """Solve (H + lam*diag(diag)) delta = -g against the ``factor`` a
    :func:`solve_damped` call returned, by one LAPACK ``dpbtrs`` call (two
    band triangular solves).

    ``delta`` has the same bytes as a :func:`solve_damped` of the same band,
    damping and ``g`` would give. Raises RuntimeError once another solve on
    the thread has reused the workspace, or when called from another thread,
    and ValueError when ``g`` does not match the band's columns.
    """
    ws = factor.workspace
    if getattr(_local, "workspace", None) is not ws or ws.generation != factor.generation:
        raise RuntimeError("the kept factor is gone: another solve reused its workspace")
    if g.shape != ws.rhs.shape:
        raise ValueError(f"band has {ws.rhs.size} columns, g {g.shape}")
    np.negative(g, out=ws.rhs)
    ws.call("dpbtrs")
    return ws.rhs.copy()


def solve_spd(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """``b @ inv(a)`` for a symmetric positive-definite ``a`` ``(m, m)`` and
    rows ``b`` ``(k, m)``, by one LAPACK ``dpbsv`` call on ``a`` as a band
    with ``m - 1`` super-diagonals (Cholesky factor of ``a``, then two
    triangular solves per row).

    As ``a`` is symmetric, ``b @ inv(a)`` is the transpose of ``inv(a) @
    b.T``, and ``b`` in C order is ``b.T`` in the column-major order LAPACK
    reads: the rows of ``b`` are solved where they lie. Only the lower
    triangle of ``a`` is read. Returns None when ``a`` is not positive
    definite, and raises ValueError when the shapes do not fit.
    """
    m = len(a)
    if m == 0 or a.shape != (m, m) or b.ndim != 2 or b.shape[1] != m:
        raise ValueError(f"cannot solve {b.shape} rows against a {a.shape} matrix")
    ws = _workspace(a.shape + b.shape)
    ws.band[...] = a
    ws.rhs[...] = b
    if ws.call("dpbsv"):
        return None
    return ws.rhs.copy()


def _gradient_converged(g: np.ndarray, diag: np.ndarray, cost: float, gtol: float) -> bool:
    """MINPACK's scale-free gradient test (see ``LmConfig.gtol``), squared:
    ``g_i^2 <= gtol^2 * H_ii * cost`` for every column.

    Columns with ``H_ii == 0`` touch no residual, so their ``g_i`` is zero
    too and they pass.
    """
    if cost <= 0.0:
        return True
    return bool((g * g <= (gtol * gtol * cost) * diag).all())


def solve_lm(problem, cfg: LmConfig = LmConfig()) -> SolveReport:
    """Minimize the whitened squared-residual cost with Levenberg-Marquardt.

    ``problem`` is an :class:`NlsProblem` or anything with the same
    ``initial_values``, ``normal_equations``, ``gradient`` and ``cost``;
    trial steps are scored with :func:`total_cost`. ``cfg`` defaults to one
    shared frozen :class:`LmConfig`, the window solve's settings.

    A problem whose ``linear`` attribute is true (``fgo.FactorWindow`` of an
    LC window; an :class:`NlsProblem` has none) has a quadratic cost, whose
    minimum is one undamped Gauss–Newton step from any start (Madsen,
    Nielsen & Tingleff 2004). It is linearized once, at the start, takes
    that step, is priced once for the report and stops after 1 iteration,
    converged, on ``"linear: one Gauss-Newton step"``; normal equations that
    are not positive definite raise SolverError. No damping, trial or stop
    test applies to it, the gradient test included.

    **One factor, two steps.** A step is a *fresh* one, from the band of
    normal equations at its point, factored by :func:`solve_damped` with the
    current damping, or a *kept* one, from the :class:`KeptFactor` that the
    fresh step before it returned (:func:`solve_kept`). After an accepted
    fresh step the solver reads only the exact gradient and cost at the new
    point (``problem.gradient``) and takes the next step from that factor;
    after an accepted kept step it assembles the band again
    (``normal_equations``), so the next step is fresh. The predicted
    decrease reads the ``lam`` and ``diag`` of the factor that made the
    step. So the band is assembled at the start and then only for a fresh
    factorization. A kept step that is rejected, and is not a tie or
    negligible (below), is taken again as a fresh step from a band at the
    same point, at the current damping. Reusing a factor so is a standard
    variant of the method (Madsen, Nielsen & Tingleff 2004).
    ``jacobian_evals`` counts the points linearized: the start and every
    accepted point but a last one that ends the solve on ``LmConfig.tol``.

    A step is accepted only when it lowers the cost; a rejected fresh step
    grows the damping tenfold. The solve stops, in the order tested, when

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
    x = np.array(problem.initial_values, dtype=float)
    lam = cfg.lambda0
    ab, g, cost = problem.normal_equations(x)
    jacobian_evals = 1
    trace = [cost]
    if not np.isfinite(cost):
        raise EvaluationError("non-finite initial cost")
    if getattr(problem, "linear", False):
        solved = solve_damped(ab, 0.0, g)
        if solved is None:
            raise SolverError("normal equations of a linear problem are not positive definite")
        x += solved[0]
        cost = total_cost(problem, x)
        trace.append(cost)
        return SolveReport(x, cost, 1, True, trace, jacobian_evals, LINEAR_STOP)

    iterations = 0
    converged = False
    message = "max iterations reached"
    # the factor of the last fresh step; ab is None at a point linearized for
    # its gradient alone, whose next step is a kept one from that factor
    factor = None
    while True:
        if _gradient_converged(g, factor.diag if ab is None else ab[-1], cost, cfg.gtol):
            converged = True
            message = "gradient below gtol"
            break
        if iterations == cfg.max_iters:
            break
        iterations += 1
        accepted = False
        while True:
            if ab is None:
                delta = solve_kept(factor, g)
            else:
                solved = solve_damped(ab, lam, g)
                if solved is None:
                    lam *= 10.0
                    if lam > cfg.lambda_max:
                        raise SolverError(
                            f"normal equations singular up to lambda={cfg.lambda_max:g}"
                        )
                    continue
                delta, factor = solved
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
            if ab is None:
                # the kept factor's H is stale here: step again from this
                # point's own band, at the current damping
                ab, g, cost = problem.normal_equations(x)
                continue
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
        # the whitened step: a warm start below gtol (the default 1e-10) then
        # stops on the gradient test after one step, and a cold one (1e-6)
        # reaches the closed form on its second step, which then stops on tol
        predicted = float(delta @ (factor.lam * factor.diag * delta - g))
        ratio = (cost - new_cost) / predicted if predicted > 0 else 0.0
        cost = new_cost
        trace.append(cost)
        if rel_drop < cfg.tol:
            # stop before relinearizing: nothing would read that H and g
            converged = True
            message = "relative cost change below tol"
            break
        lam = max(lam / (100.0 if ratio > 0.75 else 10.0), 1e-15)
        if ab is None:
            ab, g, cost = problem.normal_equations(x)
        else:
            # the fresh factor takes one more step, from the gradient here
            ab = None
            g, cost = problem.gradient(x)
        jacobian_evals += 1

    return SolveReport(x, cost, iterations, converged, trace, jacobian_evals, message)


def sqrt_info_from_cov_diag(variances: np.ndarray) -> np.ndarray:
    """Whitening matrix for a diagonal covariance given as variances."""
    variances = np.asarray(variances, dtype=float)
    # a NaN fails every comparison, so only "all finite and > 0" rejects it
    if not (np.isfinite(variances).all() and (variances > 0).all()):
        raise ValueError(f"variances must be finite and > 0, got {variances}")
    return np.diag(1.0 / np.sqrt(variances))
