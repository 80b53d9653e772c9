"""Sliding-window factor graphs for LC and TC GNSS/INS integration.

Each epoch contributes a state slot; consecutive slots are tied by a
constant-velocity motion factor (position and accelerometer bias), an INS
velocity factor and, for tightly coupled graphs, a clock random-walk factor.
GNSS information enters either as one position-fix factor per epoch (LC) or
one pseudorange factor per satellite (TC). The oldest in-window state is
anchored with a prior at its previously optimized value; window size 1 keeps
the current and last epochs only, while batch mode keeps everything.

The edges use the filter's per-epoch process noise and the trajectory's first
state the filter's initial covariance (:mod:`ekf`), so the two families share
one set of noise constants. Once the window slides, the anchor's position and
velocity variances depend on the coupling (:data:`SLIDING_ANCHOR_VAR`). Both
families start from :func:`initial_state` and seed velocity from
:func:`position_seed`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

import numpy as np

from .ekf import default_process_noise, initial_covariance
from .frames import body_accel_to_ecef, ecef_to_geodetic
from .noise_models import (
    GeometryError,
    SatObservation,
    WeightingParams,
    compute_hdop,
    lc_fix_covariance,
    pseudorange_rows,
    stack_pseudoranges,
    tc_covariance,
)
from .nls_solver import (
    EvaluationError,
    LmConfig,
    ResidualBlock,
    SolverError,
    solve_lm,
    sqrt_info_from_cov_diag,
)
from .types import (
    BIAS,
    POS,
    VEL,
    Constellation,
    EpochMeasurements,
    StateLayout,
    constellations_present,
)

BATCH = None  # window_size value meaning "keep all epochs"

# position and velocity variances of the sliding anchor, by coupling. The
# anchor approximates the marginal of the state being cut off; fix-level (LC)
# information leaves a far wider marginal than pseudorange-level (TC)
# information does
SLIDING_ANCHOR_VAR = {"lc": (25.0, 1.0), "tc": (1.0, 0.1)}


@dataclass
class FgoConfig:
    mode: str = "tc"  # "lc" or "tc"
    window_size: Optional[int] = 30  # epochs; None (BATCH) keeps everything
    weighting: WeightingParams = field(default_factory=WeightingParams)
    cov_scale: float = 1.0
    lm: LmConfig = field(default_factory=LmConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("lc", "tc"):
            raise ValueError(f"mode must be 'lc' or 'tc', got {self.mode!r}")
        if self.window_size is not None and self.window_size < 1:
            raise ValueError("window_size must be >= 1 (or None for batch)")


def motion_factor(
    idx_prev: int, idx_cur: int, dt: float, cov6: np.ndarray, layout: StateLayout
) -> ResidualBlock:
    """Constant-velocity motion model over position and accelerometer bias."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = layout.dim
    j_prev = np.zeros((6, n))
    j_prev[0:3, POS] = -np.eye(3)
    j_prev[0:3, VEL] = -dt * np.eye(3)
    j_prev[3:6, BIAS] = -np.eye(3)
    j_cur = np.zeros((6, n))
    j_cur[0:3, POS] = np.eye(3)
    j_cur[3:6, BIAS] = np.eye(3)

    def residual(xp, xc):
        return np.concatenate(
            (xc[POS] - xp[POS] - xp[VEL] * dt, xc[BIAS] - xp[BIAS])
        )

    return ResidualBlock(
        state_indices=(idx_prev, idx_cur),
        dim=6,
        fn=residual,
        jac=lambda xp, xc: [j_prev, j_cur],
        sqrt_info=sqrt_info_from_cov_diag(cov6),
        label="motion",
    )


def ins_factor(
    idx_prev: int,
    idx_cur: int,
    accel_ecef: np.ndarray,
    dt: float,
    cov3: np.ndarray,
    layout: StateLayout,
) -> ResidualBlock:
    """Velocity integration of the epoch's ECEF specific force."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    accel_ecef = np.asarray(accel_ecef, dtype=float)
    n = layout.dim
    j_prev = np.zeros((3, n))
    j_prev[:, VEL] = -np.eye(3)
    j_cur = np.zeros((3, n))
    j_cur[:, VEL] = np.eye(3)

    def residual(xp, xc):
        return xc[VEL] - xp[VEL] - accel_ecef * dt

    return ResidualBlock(
        state_indices=(idx_prev, idx_cur),
        dim=3,
        fn=residual,
        jac=lambda xp, xc: [j_prev, j_cur],
        sqrt_info=sqrt_info_from_cov_diag(cov3),
        label="ins",
    )


def gnss_fix_factor(
    idx: int, fix: np.ndarray, cov3: np.ndarray, layout: StateLayout
) -> ResidualBlock:
    """Loosely coupled position-fix factor."""
    fix = np.asarray(fix, dtype=float)
    j = np.zeros((3, layout.dim))
    j[:, POS] = -np.eye(3)
    return ResidualBlock(
        state_indices=(idx,),
        dim=3,
        fn=lambda x: fix - x[POS],
        jac=lambda x: [j],
        sqrt_info=sqrt_info_from_cov_diag(cov3),
        label="gnss_fix",
    )


def pseudorange_factor(
    idx: int, sat: SatObservation, sigma2: float, layout: StateLayout
) -> ResidualBlock:
    """Tightly coupled pseudorange factor for one satellite."""
    clock_col = layout.clock_index(sat.constellation)
    sat_pos = sat.sat_pos
    rho = sat.pseudorange

    def residual(x):
        los = sat_pos - x[0:3]
        rng = math.sqrt(los @ los)
        if rng == 0.0:
            raise GeometryError(f"satellite {sat.sat_id} coincides with receiver")
        return np.array([rho - rng - x[clock_col]])

    def jacobian(x):
        los = sat_pos - x[0:3]
        rng = math.sqrt(los @ los)
        j = np.zeros((1, layout.dim))
        j[0, 0:3] = los / rng
        j[0, clock_col] = -1.0
        return [j]

    return ResidualBlock(
        state_indices=(idx,),
        dim=1,
        fn=residual,
        jac=jacobian,
        sqrt_info=sqrt_info_from_cov_diag([sigma2]),
        label=f"pseudorange:{sat.sat_id}",
    )


def prior_factor(idx: int, value: np.ndarray, cov: np.ndarray, layout: StateLayout) -> ResidualBlock:
    """Anchor a state at a fixed value."""
    value = np.asarray(value, dtype=float).copy()
    eye = np.eye(layout.dim)
    return ResidualBlock(
        state_indices=(idx,),
        dim=layout.dim,
        fn=lambda x: x - value,
        jac=lambda x: [eye],
        sqrt_info=sqrt_info_from_cov_diag(cov),
        label="prior",
    )


def clock_walk_factor(
    idx_prev: int, idx_cur: int, sigma: float, layout: StateLayout
) -> ResidualBlock:
    """Random-walk link between consecutive clock biases, one per constellation."""
    sl = layout.clock_slice()
    n_clock = layout.dim - 9
    j_prev = np.zeros((n_clock, layout.dim))
    j_prev[:, sl] = -np.eye(n_clock)
    j_cur = np.zeros((n_clock, layout.dim))
    j_cur[:, sl] = np.eye(n_clock)
    return ResidualBlock(
        state_indices=(idx_prev, idx_cur),
        dim=n_clock,
        fn=lambda xp, xc: xc[sl] - xp[sl],
        jac=lambda xp, xc: [j_prev, j_cur],
        sqrt_info=sqrt_info_from_cov_diag(np.full(n_clock, sigma**2)),
        label="clock_walk",
    )


@dataclass
class EpochEntry:
    """Internal per-epoch record kept by the estimator.

    A TC epoch also keeps its pseudorange rows as arrays, ready for
    :func:`build_window` to stack: satellite ECEF positions, measured ranges
    and the state column of each row's clock bias. Their variances are
    ``pr_sigma2``; an LC epoch's fix row is ``meas.fix_pos`` with variances
    ``fix_cov``.
    """

    meas: EpochMeasurements
    state: np.ndarray
    accel_ecef: np.ndarray
    fix_cov: Optional[np.ndarray] = None
    pr_sigma2: Optional[np.ndarray] = None
    sat_pos: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    pseudorange: np.ndarray = field(default_factory=lambda: np.empty(0))
    clock_col: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))


class _LazyBlocks(Sequence):
    """Read-only sequence of ``length`` items, each built by ``make(i)`` when indexed."""

    def __init__(self, length: int, make) -> None:
        self._length = length
        self._make = make

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._make(j) for j in range(*i.indices(self._length))]
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("block index out of range")
        return self._make(i)


class FactorWindow:
    """The NLS problem of one window, held as stacked arrays.

    Slot ``k`` is the ``k``-th in-window epoch. Every factor except the
    pseudorange is linear: the prior on slot 0, the LC fixes, and the motion,
    INS and clock-walk factors between consecutive slots. The latter three
    give one residual entry per state column (motion on position and bias,
    INS on velocity, clock walk on the clocks), so they are stacked as one
    ``dim``-row edge residual with the constant Jacobians ``jac_prev`` and the
    identity. Their share of ``J^T J`` is computed once, here; only the
    pseudorange rows are relinearized. ``J^T J`` is block-tridiagonal and is
    kept in upper band storage with bandwidth ``2 * dim - 1``.

    The window provides what :func:`nls_solver.solve_lm` needs
    (``initial_values``, ``normal_equations``, ``cost``) and what callers of
    an :class:`NlsProblem` read (``state_dims``, ``total_dim``, ``split``).
    ``blocks`` lists the same factors as :class:`ResidualBlock` objects, built
    only when indexed: the prior, then motion, INS and clock walk per edge,
    then the fixes, then the pseudoranges.
    """

    def __init__(
        self,
        entries: Sequence[EpochEntry],
        cfg: FgoConfig,
        layout: StateLayout,
        anchor_var: np.ndarray,
    ) -> None:
        self.cfg = cfg
        self.layout = layout
        self.entries = list(entries)
        n = self.n = len(self.entries)
        d = self.dim = layout.dim
        self.state_dims = [d] * n
        self.initial_values = np.concatenate([e.state for e in self.entries])
        scale = cfg.cov_scale

        self.prior_value = self.entries[0].state.copy()
        self.prior_var = anchor_var * scale
        self.dt = np.array([e.meas.dt for e in self.entries[1:]], dtype=float)
        if np.any(self.dt <= 0):
            raise ValueError("dt must be positive")
        self.accel = np.array([e.accel_ecef for e in self.entries[1:]], dtype=float).reshape(-1, 3)
        self.accel_dt = self.accel * self.dt[:, None]
        self.edge_var = default_process_noise(layout) * scale
        self.jac_prev = np.broadcast_to(-np.eye(d), (n - 1, d, d)).copy()
        self.jac_prev[:, POS, VEL] = -self.dt[:, None, None] * np.eye(3)

        fixed = [k for k, e in enumerate(self.entries) if e.fix_cov is not None]
        self.fix_epoch = np.array(fixed, dtype=int)
        self.fix_pos = np.array(
            [self.entries[k].meas.fix_pos for k in fixed], dtype=float
        ).reshape(-1, 3)
        self.fix_var = np.array(
            [self.entries[k].fix_cov for k in fixed], dtype=float
        ).reshape(-1, 3) * scale

        self.pr_count = np.array([e.pseudorange.size for e in self.entries])
        self.pr_start = np.cumsum(self.pr_count) - self.pr_count
        self.pr_epoch = np.repeat(np.arange(n), self.pr_count)
        self.sat_pos = np.concatenate([e.sat_pos for e in self.entries])
        self.pseudorange = np.concatenate([e.pseudorange for e in self.entries])
        self.clock_col = np.concatenate([e.clock_col for e in self.entries])
        pr_var = np.concatenate(
            [np.empty(0)] + [e.pr_sigma2 for e in self.entries if e.pseudorange.size]
        ) * scale

        self.prior_w = 1.0 / np.sqrt(self.prior_var)
        self.edge_w = 1.0 / np.sqrt(self.edge_var)
        self.fix_w = 1.0 / np.sqrt(self.fix_var)
        self.pr_w = 1.0 / np.sqrt(pr_var)

        # band positions of the upper triangles of the diagonal blocks and of
        # the whole blocks right above them
        u = self.bandwidth = min(2 * d, n * d) - 1
        self._tri = np.triu_indices(d)
        self._diag_at = (u + self._tri[0] - self._tri[1], np.arange(n)[:, None] * d + self._tri[1])
        a, b = np.divmod(np.arange(d * d), d)
        upper_at = (u - d + a - b, np.arange(1, n)[:, None] * d + b)

        omega = self.edge_w**2
        hd = np.zeros((n, d, d))
        hd[0] += np.diag(self.prior_w**2)
        hd[1:] += np.diag(omega)
        hd[:-1] += np.einsum("kri,r,krj->kij", self.jac_prev, omega, self.jac_prev)
        hd[self.fix_epoch[:, None], np.arange(3), np.arange(3)] += self.fix_w**2
        self._ab_linear = np.zeros((u + 1, n * d))
        self._ab_linear[self._diag_at] = hd[:, self._tri[0], self._tri[1]]
        self._ab_linear[upper_at] = np.einsum("kri,r->kir", self.jac_prev, omega).reshape(
            n - 1, d * d
        )

        self._per_edge = 3 if layout.has_clock else 2
        self._n_edge_blocks = (n - 1) * self._per_edge
        self.blocks = _LazyBlocks(
            1 + self._n_edge_blocks + len(fixed) + self.pseudorange.size, self._block
        )

    @property
    def total_dim(self) -> int:
        return self.n * self.dim

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        return list(np.asarray(values).reshape(self.n, self.dim))

    def _whitened(self, values: np.ndarray, jacobian: bool = False):
        """Whitened residuals (prior, edges, fixes, pseudoranges) and, if
        ``jacobian``, the raw pseudorange Jacobian rows."""
        x = np.asarray(values, dtype=float).reshape(self.n, self.dim)
        prior = self.prior_w * (x[0] - self.prior_value)
        edge = x[1:] - x[:-1]
        edge[:, POS] -= x[:-1, VEL] * self.dt[:, None]
        edge[:, VEL] -= self.accel_dt
        edge *= self.edge_w
        fix = self.fix_w * (self.fix_pos - x[self.fix_epoch, 0:3])
        pr, jac = pseudorange_rows(
            self.sat_pos, self.pseudorange, self.clock_col, self.pr_epoch, x, jacobian
        )
        return (prior, edge, fix, self.pr_w * pr), jac

    @staticmethod
    def _cost(residuals) -> float:
        cost = 0.0
        labels = ("prior", "motion/ins/clock_walk", "gnss_fix", "pseudorange")
        for label, rw in zip(labels, residuals):
            part = float(np.vdot(rw, rw))
            if not np.isfinite(part):
                raise EvaluationError(f"non-finite residual in {label} factors")
            cost += part
        return cost

    def cost(self, values: np.ndarray) -> float:
        """Sum of squared whitened residuals over all factors."""
        return self._cost(self._whitened(values)[0])

    def normal_equations(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Whitened J^T J (upper band storage), J^T r and cost at ``values``."""
        (prior, edge, fix, pr), jac = self._whitened(values, jacobian=True)
        cost = self._cost((prior, edge, fix, pr))
        g = np.zeros((self.n, self.dim))
        g[0] += self.prior_w * prior
        q = self.edge_w * edge
        g[1:] += q
        g[:-1] += np.einsum("kri,kr->ki", self.jac_prev, q)
        g[self.fix_epoch, 0:3] -= self.fix_w * fix
        ab = self._ab_linear.copy()
        if pr.size:
            jw = jac
            jw *= self.pr_w[:, None]
            live = self.pr_count > 0
            starts = self.pr_start[live]
            g[live] += np.add.reduceat(jw * pr[:, None], starts, axis=0)
            hd = np.add.reduceat(jw[:, :, None] * jw[:, None, :], starts, axis=0)
            rows, cols = self._diag_at
            ab[rows, cols[live]] += hd[:, self._tri[0], self._tri[1]]
        return ab, g.ravel(), cost

    def _block(self, i: int) -> ResidualBlock:
        """The ``i``-th factor as a per-block oracle :class:`ResidualBlock`."""
        layout, edge_var, scale = self.layout, self.edge_var, self.cfg.cov_scale
        if i == 0:
            return prior_factor(0, self.prior_value, self.prior_var, layout)
        i -= 1
        if i < self._n_edge_blocks:
            edge, kind = divmod(i, self._per_edge)
            k, dt = edge + 1, self.dt[edge]
            if kind == 0:
                motion_var = np.concatenate((edge_var[POS], edge_var[BIAS]))
                return motion_factor(k - 1, k, dt, motion_var, layout)
            if kind == 1:
                return ins_factor(k - 1, k, self.accel[edge], dt, edge_var[VEL], layout)
            return clock_walk_factor(k - 1, k, math.sqrt(edge_var[9]), layout)
        i -= self._n_edge_blocks
        if i < self.fix_epoch.size:
            return gnss_fix_factor(int(self.fix_epoch[i]), self.fix_pos[i], self.fix_var[i], layout)
        i -= self.fix_epoch.size
        k = int(self.pr_epoch[i])
        j = i - int(self.pr_start[k])
        entry = self.entries[k]
        return pseudorange_factor(k, entry.meas.sats[j], entry.pr_sigma2[j] * scale, layout)


def build_window(
    entries: Sequence[EpochEntry], cfg: FgoConfig, layout: StateLayout
) -> FactorWindow:
    """Stack the newest epochs' factors into one :class:`FactorWindow`.

    A finite window of size W keeps the newest W + 1 states (the current
    epoch plus W historical ones, so window size 1 optimizes the current and
    last epochs jointly); batch keeps every epoch. Each in-graph epoch
    contributes its GNSS rows, consecutive epochs are linked by motion, INS
    and (TC) clock-walk factors, and the oldest state carries a prior at its
    stored estimate. The per-epoch arrays of :class:`EpochEntry` are
    concatenated, not rebuilt.
    """
    if not entries:
        raise ValueError("empty epoch history")
    n_avail = len(entries)
    if cfg.window_size is None:
        n_states = n_avail
    else:
        n_states = min(cfg.window_size + 1, n_avail)
    base = n_avail - n_states
    # the very first trajectory state carries the filter's initial
    # covariance; once the window has slid past it, the anchor re-pins the
    # oldest state at its previously optimized value with the tight sliding
    # prior, whose bias and clock variances are one epoch of process noise
    if base == 0:
        anchor_var = np.diag(initial_covariance(layout))
    else:
        anchor_var = default_process_noise(layout)
        anchor_var[POS], anchor_var[VEL] = SLIDING_ANCHOR_VAR[cfg.mode]
    return FactorWindow(entries[base:], cfg, layout, anchor_var)


class EpochWls:
    """Single-epoch position/clock WLS as stacked arrays.

    The unknowns are ECEF position and one clock bias per constellation in
    ``constellations``; row ``i`` is satellite ``sat_pos[i]`` with range
    ``pseudorange[i]``, clock column ``clock_col[i]`` and weight ``w[i]``
    (inverse standard deviation). Provides what :func:`nls_solver.solve_lm`
    needs (``initial_values``, ``normal_equations``, ``cost``).
    """

    def __init__(
        self,
        sats: Sequence[SatObservation],
        weighting: WeightingParams,
        initial: Optional[np.ndarray] = None,
    ) -> None:
        self.constellations = constellations_present(sats)
        self.dim = 3 + len(self.constellations)
        if len(sats) < self.dim:
            raise GeometryError(f"{len(sats)} satellites cannot determine {self.dim} unknowns")
        self.sat_pos, self.pseudorange, self.clock_col = stack_pseudoranges(
            sats, lambda c: 3 + self.constellations.index(c)
        )
        self.w = 1.0 / np.sqrt(tc_covariance(sats, weighting))
        self.initial_values = np.zeros(self.dim)
        if initial is not None:
            self.initial_values[0:3] = np.asarray(initial, dtype=float)
        # J^T J is dense: its upper triangle fills a band of width dim - 1
        self._tri = np.triu_indices(self.dim)
        self._band_at = (self.dim - 1 + self._tri[0] - self._tri[1], self._tri[1])

    def _whitened(self, values: np.ndarray, jacobian: bool = False):
        x = np.asarray(values, dtype=float).reshape(1, self.dim)
        resid, jac = pseudorange_rows(
            self.sat_pos, self.pseudorange, self.clock_col, 0, x, jacobian
        )
        rw = self.w * resid
        cost = float(rw @ rw)
        if not np.isfinite(cost):
            raise EvaluationError("non-finite residual in single-epoch pseudoranges")
        return rw, cost, jac

    def cost(self, values: np.ndarray) -> float:
        """Sum of squared whitened pseudorange residuals."""
        return self._whitened(values)[1]

    def normal_equations(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Whitened J^T J (upper band storage, full bandwidth), J^T r and cost."""
        rw, cost, jac = self._whitened(values, jacobian=True)
        jw = jac * self.w[:, None]
        ab = np.zeros((self.dim, self.dim))
        ab[self._band_at] = (jw.T @ jw)[self._tri]
        return ab, jw.T @ rw, cost


def single_epoch_wls(
    sats: Sequence[SatObservation],
    weighting: WeightingParams,
    initial: Optional[np.ndarray] = None,
    lm: Optional[LmConfig] = None,
) -> tuple[np.ndarray, dict[Constellation, float]]:
    """Weighted least-squares position/clock solve from one epoch of pseudoranges.

    Returns the ECEF position and one clock bias per constellation present.
    Raises GeometryError when there are too few satellites for the unknowns
    or the solve does not converge.
    """
    problem = EpochWls(sats, weighting, initial)
    report = solve_lm(problem, lm or LmConfig())
    if not report.converged:
        raise GeometryError(f"single-epoch solve did not converge: {report.message}")
    pos = report.values[0:3].copy()
    clocks = {c: float(report.values[3 + i]) for i, c in enumerate(problem.constellations)}
    return pos, clocks


def initial_state(
    meas: EpochMeasurements, mode: str, layout: StateLayout, weighting: WeightingParams
) -> np.ndarray:
    """First state of a trajectory, for both estimator families.

    Position is the LC fix when there is one, else the single-epoch WLS
    solution, whose clock biases fill the layout's clock states. Velocity and
    bias start at zero. Raises GeometryError when the epoch has neither.
    """
    state = layout.zeros()
    if mode == "lc" and meas.fix_available:
        state[POS] = meas.fix_pos
    elif meas.sats:
        pos, clocks = single_epoch_wls(meas.sats, weighting)
        state[POS] = pos
        for c, value in clocks.items():
            if c in layout.constellations:
                state[layout.clock_index(c)] = value
    else:
        raise GeometryError("cannot initialize: no fix and no satellites")
    return state


def position_seed(
    meas: EpochMeasurements, mode: str, weighting: WeightingParams, prev_pos: np.ndarray
) -> Optional[np.ndarray]:
    """Position of the second epoch for the two-point velocity seed.

    The LC fix, or for TC a single-epoch WLS started at ``prev_pos`` when at
    least five satellites are in view; None when the epoch gives neither.
    """
    if mode == "lc":
        return np.asarray(meas.fix_pos, dtype=float) if meas.fix_available else None
    if len(meas.sats) < 5:
        return None
    try:
        pos, _ = single_epoch_wls(meas.sats, weighting, initial=prev_pos)
    except GeometryError:
        return None
    return pos


@dataclass
class FgoStepResult:
    state: np.ndarray
    solve_time: float
    iterations: int
    cost: float
    converged: bool


class FgoEstimator:
    """Sliding-window estimator; feed epochs in time order via :meth:`step`."""

    def __init__(self, cfg: FgoConfig, layout: StateLayout):
        if cfg.mode == "tc" and not layout.has_clock:
            raise ValueError("tightly coupled mode needs clock states in the layout")
        self.cfg = cfg
        self.layout = layout
        self.entries: list[EpochEntry] = []

    def _entry(
        self, meas: EpochMeasurements, state: np.ndarray, accel_ecef: np.ndarray
    ) -> EpochEntry:
        """Epoch record with its measurement variances and, for TC, its pseudorange rows."""
        entry = EpochEntry(meas, state, accel_ecef)
        if self.cfg.mode == "lc" and meas.fix_available:
            hdop = meas.fix_hdop
            if hdop is None:
                hdop = compute_hdop(meas.sats, state[POS])
            entry.fix_cov = lc_fix_covariance(hdop, self.cfg.weighting.s_user)
        if self.cfg.mode == "tc" and meas.sats:
            entry.pr_sigma2 = tc_covariance(meas.sats, self.cfg.weighting)
            entry.sat_pos, entry.pseudorange, entry.clock_col = stack_pseudoranges(
                meas.sats, self.layout.clock_index
            )
        return entry

    def step(self, meas: EpochMeasurements) -> FgoStepResult:
        t0 = time.perf_counter()
        if not self.entries:
            state = initial_state(meas, self.cfg.mode, self.layout, self.cfg.weighting)
            entry = self._entry(meas, state, np.zeros(3))
            self.entries.append(entry)
            return FgoStepResult(
                entry.state.copy(), time.perf_counter() - t0, 0, 0.0, True
            )

        prev = self.entries[-1]
        if meas.t <= prev.meas.t:
            raise ValueError("epochs must arrive in strictly increasing time order")
        geo = ecef_to_geodetic(prev.state[POS])
        accel_ecef = body_accel_to_ecef(
            meas.accel_body_mean, prev.state[BIAS], meas.attitude, geo
        )
        state = prev.state.copy()
        state[POS] = prev.state[POS] + prev.state[VEL] * meas.dt
        state[VEL] = prev.state[VEL] + accel_ecef * meas.dt
        if len(self.entries) == 1:
            # two-point velocity seed: difference the first two position
            # solutions. Updating the stored first state matters because the
            # anchor prior pins its value, which otherwise stays at zero.
            seed = position_seed(meas, self.cfg.mode, self.cfg.weighting, prev.state[POS])
            if seed is not None:
                vel_seed = (seed - prev.state[POS]) / meas.dt
                prev.state[VEL] = vel_seed.copy()
                state[VEL] = vel_seed
                state[POS] = seed
        self.entries.append(self._entry(meas, state, accel_ecef))

        problem = build_window(self.entries, self.cfg, self.layout)
        try:
            report = solve_lm(problem, self.cfg.lm)
        except SolverError as exc:
            raise SolverError(f"epoch {len(self.entries) - 1} (t={meas.t}): {exc}") from exc
        solution = problem.split(report.values)
        n_states = len(solution)
        for i in range(n_states):
            self.entries[len(self.entries) - n_states + i].state = solution[i].copy()
        return FgoStepResult(
            self.entries[-1].state.copy(),
            time.perf_counter() - t0,
            report.iterations,
            report.cost,
            report.converged,
        )

    @property
    def current_state(self) -> np.ndarray:
        if not self.entries:
            raise ValueError("estimator not initialized")
        return self.entries[-1].state.copy()
