"""Sliding-window factor graphs for LC and TC GNSS/INS integration.

Each epoch contributes a state slot of position, velocity and (TC) one clock
per constellation; consecutive slots are tied by a constant-velocity motion
factor on position, an INS velocity factor and, for tightly coupled graphs, a
clock random-walk factor. GNSS information enters either as one position-fix
factor per epoch (LC) or one pseudorange factor per satellite (TC). The
oldest in-window state is anchored with a prior at its previously optimized
value; window size 1 keeps the current and last epochs only, while batch mode
keeps everything.

The edges move a state by the filter's process model and carry the per-epoch
process noise it predicts with, and the trajectory's first state the filter's
initial covariance: the two families share all three, from :mod:`noise_models`.
Once the window slides, the anchor's position and velocity variances depend
on the coupling (:data:`SLIDING_ANCHOR_VAR`). Both families start from
:func:`initial_state`, seed velocity by :func:`seed_velocity` and weight LC
fixes by :func:`fix_hdop`; the seed, like the simulator's LC fixes, is taken
only from an :func:`overdetermined` epoch. Every single-epoch WLS fix (the
start, the seed and the simulator's LC fixes) is one batched Gauss–Newton
solve of an :class:`EpochWls` stack from the Earth's centre. LM solves the TC
windows only: an LC window is linear, and :func:`nls_solver.solve_lm` solves
it by one Gauss–Newton step, its exact minimum.

The estimator keeps one :class:`FactorWindow`, its only epoch history, and
:func:`build_window` slides it an epoch at a time. The window builds each
slot straight from the epoch's measurements, and decides alone when its
oldest slot drops and which prior pins the oldest slot. Its per-slot
data, each slot's epoch and state estimate among them, live in
fixed-capacity slot buffers (Sibley et al., *Sliding Window Filter*, 2010),
read through the live view ``FactorWindow.slots``, so a slide writes one
slot and moves no others, and the pseudorange rows are padded per slot so
that each slot's state is broadcast over its rows. Each push rewrites
every diagonal block of the linear band in one pass. Each point the solver
visits is priced once: the linearization at an accepted trial reuses the
residuals its cost computed. A pricing covers every slot, so the first one
after a slide prices the whole window anew. A warm TC window solve factors
one band: the solver reads only the gradient at the point its first step
reaches, and takes a second step, if any, from the first step's factor.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

import numpy as np

from .frames import body_accel_to_ecef, ecef_to_geodetic
from .noise_models import (
    GeometryError,
    SatObservation,
    WeightingParams,
    compute_hdop,
    default_process_noise,
    initial_covariance,
    lc_fix_covariance,
    nonsingular,
    pseudorange_rows,
    stack_pseudoranges,
    tc_covariance,
    transition,
    transition_jacobian,
)
from .nls_solver import (
    EvaluationError,
    ResidualBlock,
    SolverError,
    solve_lm,
    sqrt_info_from_cov_diag,
)
from .types import (
    POS,
    VEL,
    Constellation,
    EpochMeasurements,
    StateLayout,
    StepResult,
    constellations_present,
)

if TYPE_CHECKING:
    # harness imports this module, so the config is imported for typing only
    from .harness import RunConfig

BATCH = None  # RunConfig.window value meaning "keep all epochs"

# position and velocity variances of the sliding anchor, by coupling. The
# anchor approximates the marginal of the state being cut off; fix-level (LC)
# information leaves a far wider marginal than pseudorange-level (TC)
# information does
SLIDING_ANCHOR_VAR = {"lc": (25.0, 1.0), "tc": (1.0, 0.1)}


def motion_factor(
    idx_prev: int, idx_cur: int, dt: float, cov3: np.ndarray, layout: StateLayout
) -> ResidualBlock:
    """Constant-velocity motion model on position."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = layout.dim
    j_prev = np.zeros((3, n))
    j_prev[:, POS] = -np.eye(3)
    j_prev[:, VEL] = -dt * np.eye(3)
    j_cur = np.zeros((3, n))
    j_cur[:, POS] = np.eye(3)

    def residual(xp, xc):
        return xc[POS] - xp[POS] - xp[VEL] * dt

    return ResidualBlock(
        state_indices=(idx_prev, idx_cur),
        dim=3,
        fn=residual,
        jac=lambda xp, xc: [j_prev, j_cur],
        sqrt_info=sqrt_info_from_cov_diag(cov3),
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
    n_clock = len(layout.constellations)
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


# what a padding pseudorange row holds, in the order of the arrays of
# stack_pseudoranges and then the weight: a satellite about 1e9 km from the
# Earth, so that no receiver state the solver reaches gives it a zero range,
# the first clock column, which every TC slot has, and zero weight (infinite
# variance)
_PR_PAD = {"sat_pos": 1.0e12, "pseudorange": 0.0, "clock_col": VEL.stop, "pr_w": 0.0}


# slot buffers that slot k holds for the edge into it, live from slot 1 on
_EDGE_BUFFERS = ("dt", "accel", "edge_jac", "edge_block", "edge_res")


def _band_at(r, c, shift: int, dim: int):
    """Where entry (r, c) of a ``dim``-square block sits in a slot's band
    columns, flattened: column c, band row ``shift + r - c``. ``shift`` is
    ``dim`` for the slot's diagonal block and 0 for the block above it."""
    return c * (dim + 1) + shift + r - c


def _band_columns(block: np.ndarray, shift: int) -> np.ndarray:
    """The square ``block`` as a slot's ``(d, d + 1)`` band columns, placed
    by :func:`_band_at`. Entries that fall outside band rows 0 to d are left
    out: below the diagonal block's diagonal, which symmetry gives, and
    above the block above's, where ``J_prev^T Omega`` is zero."""
    d = len(block)
    r, c = np.indices(block.shape).reshape(2, -1)
    inside = (shift + r - c >= 0) & (shift + r - c <= d)
    columns = np.zeros(d * (d + 1))
    columns[_band_at(r, c, shift, d)[inside]] = block.ravel()[inside]
    return columns.reshape(d, d + 1)


class FactorWindow:
    """The NLS problem of one window of the run ``cfg``, over its state
    ``cfg.layout`` (kept as ``layout``), held in slot-major buffers and slid
    one epoch at a time.

    Slot ``k`` is the ``k``-th in-window epoch; :meth:`push` turns an epoch
    into its slot, weighting its rows as it writes them. Every factor except
    the pseudorange is linear: the prior on slot 0, the LC fixes, and the
    motion, INS and clock-walk factors between consecutive slots. The
    latter three give one residual entry per state column (motion on
    position, INS on velocity, clock walk on the clocks), so they
    are stacked as one ``dim``-row edge residual ``(x_k - x_{k-1}) -
    transition(x_{k-1}, a, dt)`` with the constant Jacobians ``J_prev = -F``
    of the process model (:mod:`noise_models`) and the identity. ``J^T J``
    is kept in upper band storage with ``dim`` super-diagonals: it is
    block-tridiagonal, and the edge's off-diagonal block ``J_prev^T Omega``
    has no entry right of the diagonal of its ``dim``-square block because
    ``J_prev`` is upper triangular (each edge row depends only on the same or
    later columns of the previous state: position on velocity). Each slot
    holds its ``dim`` band columns of ``dim + 1`` band rows, and every block
    is kept in that layout, placed by one rule (:func:`_band_at`): entry (r,
    c) sits in column c at band row ``shift + r - c``, with shift ``dim`` for
    the slot's diagonal block and 0 for ``J_prev^T Omega`` of the edge into
    it, the block above; the two fill disjoint band rows.

    **Slot buffers.** Every per-slot datum lives in a preallocated buffer
    whose first axis is the buffer slot: the slot's epoch (``meas``, an
    object buffer), its state estimate (``state``), the edge into it
    (``dt``, ``accel``, the specific force that drives it, ``edge_jac``, its
    ``J_prev``, and ``edge_block``, the edge's share of the previous slot's
    diagonal block), the LC fix (``fix_pos``, and ``fix_w``, zero without a
    fix), the TC pseudorange rows, band columns and last pricing (below).
    The live window is ``n`` consecutive buffer slots from ``_start``, and
    ``slots`` maps each buffer's name to its live view, taken anew after
    every push; an edge buffer's view starts at slot 1, since slot 0 has no
    edge into it. A finite window has room for 2 (W + 1) slots, a batch
    window doubles its room when full. :meth:`push` writes only the new
    slot, its state and its edge; once a finite window holds W + 1 slots,
    it first drops slot 0 by advancing the view, and the window is
    ``slid`` from then on. When the view reaches the end of the buffers,
    the live slots move to the front, at most once every W + 1 pushes. The
    edge's ``J_prev``, its ``J_prev^T Omega``, written into the new slot's
    columns, and its diagonal share depend only on its ``dt``, so they are
    built again only when ``dt`` changes. The push then pins slot 0 at its
    own state, with the first prior until the window has slid and the
    sliding prior after, and rebuilds every diagonal block in whole-array
    operations, slot 0's columns zeroed since no block sits above them. Each
    block is summed in one order: the edge out of the slot, then the prior or
    the edge into it, then the fix, whose weights are slice adds on the
    diagonal (band row ``dim``). One push leaves the window ready to solve.
    The solve starts from the ``state`` rows, and the estimator writes its
    solution back into them. :func:`build_window` is that push.

    **Pseudorange rows** are padded per slot to the widest slot so far, M
    (at least 2), with zero weight on the padding; M grows only when a slot
    exceeds it. Satellite coordinates sit before the rows (``(slots, 3,
    M)``), so the range equation runs along the rows.
    :func:`noise_models.pseudorange_rows` broadcasts each slot's state over
    its rows. The normal equations take each row's compact Jacobian and
    residual ``[w u | -w e_clock | w r]`` (the unit line of sight on
    position, -1 on its clock column; 3 + C + 1 columns for C clocks), whose
    constant clock part is written once, at push. One batched product gives
    every slot's ``J^T J`` on its position and clock columns and its ``J^T
    r``, and the upper triangle is added to its diagonal block. No sum
    depends on M, so the same slots give the same sums whatever width the
    rows have reached.

    **One evaluation per point.** The last pricing is kept: the point it
    priced and its cost, and in the slot buffers each edge's whitened
    residual and each slot's whitened fix residual or its pseudorange rows'
    compact rows ``[w u | -w e_clock | w r]``. :meth:`cost` prices every
    slot or none: a point equal (by value) to the kept one is not priced
    again, so the LM solver's accepted trial is the next point it
    linearizes: by :meth:`gradient` (``J^T r`` alone, from the compact rows'
    residual column, with no band copy, batched product or scatter) after a
    step from a fresh factor, which the solver's next step reuses, and by
    :meth:`normal_equations` at the start and before every other fresh
    factorization. A push drops the kept cost, so the first pricing after a
    slide prices every slot, carried ones included. Pricing only the factors
    whose variables changed, as iSAM2 does (Kaess et al., IJRR 2012), would
    save little here: a pricing's cost is its numpy calls more than its
    slots.
    :meth:`newest_residuals` hands on the newest slot's raw pseudorange
    residuals from the last pricing, so that the caller scoring the epoch
    need not evaluate them again.

    The window provides what :func:`nls_solver.solve_lm` needs
    (``initial_values``, ``normal_equations``, ``gradient``, ``cost``, and
    ``linear``, true for an LC window, whose prior, edges and fixes are all
    linear, so that its solve is one Gauss–Newton step) and what callers of
    an :class:`NlsProblem` read (``total_dim``).
    ``blocks`` gives each factor's kind: ``"prior"``, then ``"motion"``,
    ``"ins"`` and (TC) ``"clock_walk"`` per edge, then ``"gnss_fix"`` per
    LC fix or ``"pseudorange"`` per TC row. The factor functions above
    (:func:`prior_factor`, ...) are the per-block form of each kind.
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        layout = self.layout = cfg.layout
        d = self.dim = layout.dim
        # whether the window has dropped a slot, so that slot 0 is no longer
        # the trajectory's first epoch
        self.slid = False
        self.n = 0
        self._start = 0
        self.edge_w = 1.0 / np.sqrt(default_process_noise(layout) * cfg.cov_scale)
        self._edge_w2 = self.edge_w**2
        self._tc = cfg.coupling == "tc"
        # only the pseudorange rows are nonlinear
        self.linear = not self._tc
        cap = 8 if cfg.window is None else 2 * (cfg.window + 1)
        self._buf = {
            # each slot's epoch, from which push built the slot
            "meas": np.empty(cap, dtype=object),
            # each slot's state estimate, where every solve starts
            "state": np.zeros((cap, d)),
            # a column, so that it broadcasts over an edge's state columns
            "dt": np.empty((cap, 1)),
            # the ECEF specific force of the edge, and its J_prev = -F
            "accel": np.zeros((cap, 3)),
            "edge_jac": np.zeros((cap, d, d)),
            # band columns slot by slot: column c of a slot holds its d + 1
            # band rows, so a live window is d + 1 rows in column order
            "band": np.zeros((cap, d, d + 1)),
            # J^T Omega J of the edge into each slot, its share of the
            # previous slot's diagonal block, as that slot's band columns
            "edge_block": np.empty((cap, d, d + 1)),
            # the last pricing's whitened edge residuals
            "edge_res": np.zeros((cap, d)),
        }
        if self._tc:
            # at least two rows per slot, so that sums down the slot axis
            # never run over a single column, which numpy sums in another order
            self._buf.update(self._pr_buffers(cap, 2))
        else:
            self._buf.update(
                fix_pos=np.zeros((cap, 3)),
                fix_w=np.zeros((cap, 3)),
                # the last pricing's whitened fix residuals
                fix_res=np.zeros((cap, 3)),
            )
        # the point and cost of the last pricing (the cost None while a
        # pricing runs, and once a push has changed the window since)
        self._kept_point: Optional[np.ndarray] = None
        self._kept_cost: Optional[float] = None
        # the raw residuals of the newest slot's rows at the last pricing
        self._newest_raw: Optional[np.ndarray] = None
        # the last edge terms pushed: dt, J_prev, then J_prev^T Omega and
        # the edge block as band columns
        self._edge_terms: tuple = (None, None, None, None)
        # where a slot's diagonal block sits in its band columns
        self._diag_region = _band_columns(np.ones((d, d)), d) != 0
        # slot 0's two prior weights: the trajectory's first state
        # carries the filter's initial covariance; once the window has slid
        # past it, the oldest state is re-pinned at its previously optimized
        # value with the tight sliding prior, whose clock variances are one
        # epoch of process noise
        sliding = default_process_noise(layout)
        sliding[POS], sliding[VEL] = SLIDING_ANCHOR_VAR[cfg.coupling]
        self._priors = {
            slid: 1.0 / np.sqrt(var * cfg.cov_scale)
            for slid, var in ((False, np.diag(initial_covariance(layout))), (True, sliding))
        }
        self._slot_band = d * (d + 1)
        if self._tc:
            # state columns of the compact rows' Jacobian part: position, clocks
            self._clock = layout.clock_slice()
            compact = self._compact = np.r_[0:3, np.arange(d)[self._clock]]
            c0, c1 = np.triu_indices(compact.size)
            self._compact_tri = c0 * (compact.size + 1) + c1
            self._compact_band = _band_at(compact[c0], compact[c1], d, d)
        self._scatter_n = -1
        # the first flattened index of each slot's state, as a column
        self._slot_at = np.empty((0, 1), dtype=int)
        self._view()

    def _pr_buffers(self, cap: int, width: int) -> dict[str, np.ndarray]:
        """Pseudorange slot buffers of ``width`` rows per slot, all padding."""
        n_clock = len(self.layout.constellations)
        out = {name: np.full((cap, width), fill) for name, fill in _PR_PAD.items()}
        out["sat_pos"] = np.full((cap, 3, width), _PR_PAD["sat_pos"])
        # each row's [w u | -w e_clock | w r] as a column: the clock part is
        # written at push, u and r by each pricing
        out["pr_rows"] = np.zeros((cap, 3 + n_clock + 1, width))
        return out

    @property
    def total_dim(self) -> int:
        return self.n * self.dim

    @property
    def blocks(self) -> tuple[str, ...]:
        edge = ("motion", "ins", "clock_walk")[: 3 if self._tc else 2]
        if self._tc:
            gnss = ("pseudorange",) * sum(len(meas.sats) for meas in self.slots["meas"])
        else:
            gnss = ("gnss_fix",) * int((self.slots["fix_w"][:, 0] > 0).sum())
        return ("prior", *edge * (self.n - 1), *gnss)

    def _view(self) -> None:
        """Take the live slots' view of every slot buffer into ``slots`` and,
        for TC, where each padded row's clock sits in the flattened states."""
        lo, hi, buf = self._start, self._start + self.n, self._buf
        self.slots = {name: arr[lo + (name in _EDGE_BUFFERS) : hi] for name, arr in buf.items()}
        if self._tc:
            if len(self._slot_at) < self.n:
                self._slot_at = np.arange(0, len(buf["dt"]) * self.dim, self.dim)[:, None]
            self._clock_at = buf["clock_col"][lo:hi] + self._slot_at[: self.n]

    def _make_room(self) -> None:
        """Free the buffer slot after the view: move the live slots to the
        front, or double the buffers when they already start there."""
        buf, lo, n = self._buf, self._start, self.n
        for name, arr in buf.items():
            if lo:
                arr[:n] = arr[lo : lo + n]
            else:
                buf[name] = np.zeros((2 * len(arr),) + arr.shape[1:], dtype=arr.dtype)
                buf[name][:n] = arr[:n]
        self._start = 0

    def _widen(self, width: int) -> None:
        """Pad every slot's pseudorange rows to ``width``."""
        buf = self._buf
        old = buf["pr_w"].shape[1]
        for name, arr in self._pr_buffers(len(buf["dt"]), width).items():
            arr[..., :old] = buf[name]
            buf[name] = arr

    def push(self, meas: EpochMeasurements, state: np.ndarray, accel_ecef: np.ndarray) -> None:
        """Append the epoch ``meas`` as the newest slot, estimated at ``state``
        and reached with the ECEF specific force ``accel_ecef``, weighting an
        LC fix by its HDOP at ``state``. A full finite window (W + 1 slots)
        first drops slot 0 and is slid. Then pin slot 0 at its own state, so
        that the window is ready to solve from the slots' states."""
        cfg, buf, scale = self.cfg, self._buf, self.cfg.cov_scale
        self._kept_cost = None
        drop = cfg.window is not None and self.n == cfg.window + 1
        if drop:
            self.slid = True
            self._start += 1
            self.n -= 1
        if self._start + self.n == len(buf["dt"]):
            self._make_room()
        p = self._start + self.n
        self.n += 1
        buf["meas"][p] = meas
        buf["state"][p] = state
        # a window's first slot has no edge into it
        if self.n > 1:
            dt = float(meas.dt)
            if dt != self._edge_terms[0]:
                jac = -transition_jacobian(dt, self.dim)
                # the edge's off-diagonal block, J_prev^T Omega, which sits
                # in the new slot's columns above its diagonal block, and its
                # share of the previous slot's diagonal block
                jw = jac.T * self._edge_w2
                self._edge_terms = (dt, jac, _band_columns(jw, 0), _band_columns(jw @ jac, self.dim))
            _, buf["edge_jac"][p], buf["band"][p], buf["edge_block"][p] = self._edge_terms
            buf["dt"][p] = dt
            buf["accel"][p] = accel_ecef

        if self._tc:
            rows = len(meas.sats)
            if rows > buf["pr_w"].shape[1]:
                self._widen(rows)
            clock = buf["pr_rows"][p, 3:-1]
            clock[:] = 0.0
            if rows:
                w = 1.0 / np.sqrt(tc_covariance(meas.sats, cfg.weighting) * scale)
                stacked = stack_pseudoranges(meas.sats, self.layout.clock_index)
                for name, value in zip(_PR_PAD, (*stacked, w)):
                    buf[name][p, ..., :rows] = value
                clock[stacked[2] - self._clock.start, np.arange(rows)] = -w
            for name, fill in _PR_PAD.items():
                buf[name][p, ..., rows:] = fill
        else:
            fixed, w = meas.fix_available, 0.0
            if fixed:
                var = lc_fix_covariance(fix_hdop(meas, state[POS]), cfg.weighting.s_user) * scale
                w = 1.0 / np.sqrt(var)
            buf["fix_pos"][p] = meas.fix_pos if fixed else 0.0
            buf["fix_w"][p] = w
        self._view()

        # pin slot 0 and rewrite every diagonal block
        slots = self.slots
        self.prior_value = slots["state"][0].copy()
        self.prior_w = self._priors[self.slid]
        band = slots["band"]
        # no block sits above slot 0, though a drop leaves the dropped
        # edge's there; the other slots keep theirs
        band[0] = 0.0
        band[1:, self._diag_region] = 0.0
        # every slot but the last has an edge out
        band[:-1] += slots["edge_block"]
        diagonal = band[:, :, self.dim]
        diagonal[0] += self.prior_w**2
        diagonal[1:] += self._edge_w2
        if not self._tc:
            diagonal[:, POS] += slots["fix_w"] ** 2
        self.initial_values = slots["state"].flatten()

    def _whitened(self, x: np.ndarray):
        """Price the ``(n, dim)`` states ``x``.

        Writes the pricing of every slot and of the edges into them into the
        slot buffers, and the prior's, and returns the window's whitened
        residuals (prior, edges, GNSS: the LC fixes or the TC pseudorange
        rows) at ``x``.
        """
        slots = self.slots
        prior = self._prior_res = self.prior_w * (x[0] - self.prior_value)
        edge = slots["edge_res"]
        np.subtract(x[1:], x[:-1], out=edge)
        edge -= transition(x[:-1], slots["accel"], slots["dt"])
        edge *= self.edge_w
        if not self._tc:
            fix = slots["fix_res"]
            np.subtract(slots["fix_pos"], x[:, 0:3], out=fix)
            fix *= slots["fix_w"]
            return prior, edge, fix
        raw, unit = pseudorange_rows(slots["sat_pos"], slots["pseudorange"], self._clock_at, x)
        # the newest slot's raw residuals, which only the caller reads
        self._newest_raw = raw[-1]
        rows, w = slots["pr_rows"], slots["pr_w"]
        np.multiply(unit, w[:, None], out=rows[:, 0:3])
        np.multiply(raw, w, out=rows[:, -1])
        return prior, edge, rows[:, -1]

    def _cost(self, residuals) -> float:
        prior, edge, gnss = residuals
        cost = float(np.vdot(prior, prior) + np.vdot(edge, edge))
        if self._tc:
            # the padded rows are summed down the slots, then across in
            # order: padding adds exact zeros wherever M ends
            cost += sum(np.einsum("ij,ij->j", gnss, gnss).tolist())
        else:
            cost += float(np.vdot(gnss, gnss))
        if not math.isfinite(cost):
            labels = ("prior", "motion/ins/clock_walk", "pseudorange" if self._tc else "gnss_fix")
            for label, rw in zip(labels, residuals):
                if not math.isfinite(np.vdot(rw, rw)):
                    raise EvaluationError(f"non-finite residual in {label} factors")
        return cost

    def cost(self, values: np.ndarray) -> float:
        """Sum of squared whitened residuals at ``values``, with the slot
        buffers holding its pricing. Every slot is priced, unless ``values``
        equals the point last priced: then none is."""
        x = np.asarray(values, dtype=float).reshape(self.n, self.dim)
        if self._kept_cost is None or not np.array_equal(x, self._kept_point):
            # cleared first, so that a pricing that raises keeps no cost
            self._kept_cost = None
            cost = self._cost(self._whitened(x))
            self._kept_point, self._kept_cost = x.copy(), cost
        return self._kept_cost

    def _linear_gradient(self) -> np.ndarray:
        """The ``(n, dim)`` share of J^T r of the prior, the edges and the LC
        fixes at the last pricing."""
        slots = self.slots
        g = np.zeros((self.n, self.dim))
        g[0] += self.prior_w * self._prior_res
        q = self.edge_w * slots["edge_res"]
        g[1:] += q
        g[:-1] += np.matmul(q[:, None], slots["edge_jac"])[:, 0]
        if not self._tc:
            g[:, 0:3] -= slots["fix_w"] * slots["fix_res"]
        return g

    def gradient(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Whitened J^T r and cost at ``values``, from the same pricing as
        :meth:`normal_equations`, without its band: each slot's pseudorange
        rows give their share by one product with their residual column."""
        cost = self.cost(values)
        g = self._linear_gradient()
        if self._tc:
            rows = self.slots["pr_rows"]
            g[:, self._compact] += np.matmul(rows[:, :-1], rows[:, -1, :, None])[..., 0]
        return g.ravel(), cost

    def normal_equations(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Whitened J^T J (upper band storage), J^T r and cost at ``values``."""
        cost = self.cost(values)
        n, d, slots = self.n, self.dim, self.slots
        g = self._linear_gradient()
        band = slots["band"].copy()
        if self._tc:
            rows = slots["pr_rows"]
            prod = np.matmul(rows, rows.transpose(0, 2, 1))
            g[:, self._compact] += prod[:, :-1, -1]
            if self._scatter_n != n:
                # where each slot's compact upper triangle sits in the
                # product stack and in the live band
                slot = np.arange(n)[:, None]
                self._scatter_prod = (slot * rows.shape[1] ** 2 + self._compact_tri).ravel()
                self._scatter_band = (slot * self._slot_band + self._compact_band).ravel()
                self._scatter_n = n
            band.reshape(-1)[self._scatter_band] += prod.take(self._scatter_prod)
        return band.reshape(n * d, d + 1).T, g.ravel(), cost

    def newest_residuals(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Raw pseudorange residuals of the newest slot's rows at ``values``,
        read from the last pricing; None for an LC window, or when that
        pricing was not at the newest slot's state in ``values``."""
        if not self._tc or self._kept_cost is None:
            return None
        if not np.array_equal(self._kept_point[-1], np.asarray(values)[-self.dim :]):
            return None
        return self._newest_raw[: len(self.slots["meas"][-1].sats)].copy()


def build_window(
    window: FactorWindow, meas: EpochMeasurements, state: np.ndarray, accel_ecef: np.ndarray
) -> FactorWindow:
    """Slide ``window`` by the newest epoch ``meas``, predicted at ``state``
    with the ECEF specific force ``accel_ecef``, and return it.

    A finite window of size W keeps the newest W + 1 states (the current
    epoch plus W historical ones, so window size 1 optimizes the current and
    last epochs jointly), so the push drops the oldest slot once it holds
    W + 1; batch keeps every epoch. Each in-graph epoch contributes its GNSS
    rows, consecutive epochs are linked by motion, INS and (TC) clock-walk
    factors, and the oldest state carries a prior at its stored estimate.
    """
    window.push(meas, state, accel_ecef)
    return window


# The longest Gauss–Newton position step (m) that ends a WLS solve. A step s
# leaves each row off its linear model by about s^2 / (2 rho), rho ~ 2e7 m the
# satellite range: 2.5e-10 m at 0.1 m, under the 9.3e-10 m spacing of doubles
# at the Earth's radius, so the closing step lands on the minimum to rounding.
FIX_STEP_M = 0.1
WLS_MAX_ITERS = 20  # steps before the closing one; from the Earth's centre a canyon epoch takes 5


class EpochWls:
    """Single-epoch position/clock WLS of a stack of epochs, solved as one
    batch.

    ``epochs`` holds each epoch's satellites. Epoch ``k``'s unknowns are its
    ECEF position and one clock bias per constellation in ``constellations``,
    those present in any epoch, so the values are ``(E, 3 + C)``, flattened;
    every epoch starts at the Earth's centre, with zero clocks. Each epoch's
    rows are padded to the widest epoch's M with zero weight, in the padded
    layout of :func:`noise_models.pseudorange_rows`: satellite ``sat_pos[k, :, i]``
    with range ``pseudorange[k, i]``, weight ``w[k, i]`` (inverse standard
    deviation) and its clock one-hot in ``clocks[k, i]``. No epoch shares an
    unknown with another, so each epoch has its own ``(3 + C)``-square
    ``J^T J``, and :meth:`solve` takes every epoch's Gauss–Newton step in one
    batched linear solve. A clock of a constellation the epoch lacks touches
    none of its rows: its column holds a unit diagonal and a zero gradient,
    so the clock stays where it started. One epoch is
    :func:`single_epoch_wls`'s problem. Raises GeometryError when the stack
    is empty or an epoch has fewer satellites than its own unknowns.
    """

    def __init__(
        self, epochs: Sequence[Sequence[SatObservation]], weighting: WeightingParams
    ) -> None:
        if not epochs:
            raise GeometryError("an empty stack of epochs has no fix to solve")
        sats = [sat for epoch in epochs for sat in epoch]
        self.constellations = constellations_present(sats)
        d = self.dim = 3 + len(self.constellations)
        counts = np.array([len(epoch) for epoch in epochs])
        e, m = len(epochs), int(counts.max())
        # each satellite's epoch and row in the padded layout
        k = np.repeat(np.arange(e), counts)
        i = np.arange(len(sats)) - np.repeat(counts.cumsum() - counts, counts)
        sat_pos, pseudorange, clock_col = stack_pseudoranges(
            sats, lambda c: 3 + self.constellations.index(c)
        )
        self.sat_pos = np.full((e, 3, m), _PR_PAD["sat_pos"])
        self.sat_pos[k, :, i] = sat_pos.T
        col = np.full((e, m), 3)
        col[k, i] = clock_col
        real = np.arange(m) < counts[:, None]
        self.clocks = (col[..., None] == np.arange(3, d)) & real[..., None]
        # the columns each epoch's rows touch: its position and its own clocks
        self.used = np.concatenate((np.ones((e, 3), dtype=bool), self.clocks.any(axis=1)), axis=1)
        unknowns = self.used.sum(axis=1)
        if (short := counts < unknowns).any():
            n, u = counts[short][0], unknowns[short][0]
            raise GeometryError(f"{n} satellites cannot determine {u} unknowns")
        self.pseudorange = np.zeros((e, m))
        self.pseudorange[k, i] = pseudorange
        self.w = np.zeros((e, m))
        self.w[k, i] = 1.0 / np.sqrt(tc_covariance(sats, weighting))
        # where each row's clock sits in the flattened values
        self.clock_col = col + d * np.arange(e)[:, None]
        # each row's Jacobian on its epoch's clocks, -1 on its own
        self._clock_jac = -self.clocks.astype(float)
        self.initial_values = np.zeros(e * d)

    def _gram(self, values: np.ndarray):
        """Each epoch's whitened J^T J (``(E, dim, dim)``, a unit diagonal on
        the clocks it lacks) and J^T r (``(E, dim)``) at ``values``."""
        x = np.asarray(values, dtype=float).reshape(-1, self.dim)
        resid, unit = pseudorange_rows(self.sat_pos, self.pseudorange, self.clock_col, x)
        jw = np.concatenate((unit.transpose(0, 2, 1), self._clock_jac), axis=2)
        jw *= self.w[..., None]
        jwt = jw.transpose(0, 2, 1)
        gram = jwt @ jw
        gram.reshape(len(gram), -1)[:, :: self.dim + 1] += ~self.used
        return gram, (jwt @ (self.w * resid)[..., None])[..., 0]

    def newton_step(
        self, values: np.ndarray, ok: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per epoch at ``values``, whether its J^T J over the columns it uses
        passes :func:`noise_models.nonsingular` (or ``ok``, a verdict already
        taken), and its undamped Gauss–Newton step ``-(J^T J)^-1 J^T r``
        (``(E, dim)``, zero where not ok)."""
        gram, g = self._gram(values)
        if ok is None:
            ok = nonsingular(gram, self.used)
        step = np.zeros_like(g)
        try:
            step[ok] = -np.linalg.solve(gram[ok], g[ok, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # a diverging epoch's J^T J can round to exactly singular, which
            # makes the batched solve raise for every epoch: judge them all
            ok = ok & nonsingular(gram, self.used)
            step[ok] = -np.linalg.solve(gram[ok], g[ok, :, None])[..., 0]
        return ok, step

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Batched Gauss–Newton from ``initial_values`` until every epoch's
        last position step is at most :data:`FIX_STEP_M`, or for
        :data:`WLS_MAX_ITERS` steps, then one closing step. Returns each
        epoch's solution ``(E, dim)`` and whether it is a fix: its J^T J
        passes :func:`noise_models.nonsingular` at the start (a singular
        epoch takes no step, so that the batched solve does not raise) and
        at the end, not on every step, where condition numbers would cost
        more than the steps; and its closing position step is within the
        bound."""
        values = self.initial_values.reshape(-1, self.dim).copy()
        live, step = self.newton_step(values)
        values += step
        for _ in range(WLS_MAX_ITERS - 1):
            if (np.linalg.norm(step[:, 0:3], axis=1) <= FIX_STEP_M).all():
                break
            live, step = self.newton_step(values, live)
            values += step
        ok, step = self.newton_step(values)
        values += step
        return values, live & ok & (np.linalg.norm(step[:, 0:3], axis=1) <= FIX_STEP_M)


def single_epoch_wls(
    sats: Sequence[SatObservation], weighting: WeightingParams
) -> tuple[np.ndarray, dict[Constellation, float]]:
    """Weighted least-squares position/clock solve from one epoch of
    pseudoranges: :meth:`EpochWls.solve` of that one epoch, from the Earth's
    centre.

    Returns the ECEF position and one clock bias per constellation present.
    Raises GeometryError when there are too few satellites for the unknowns,
    or the epoch gives no fix: J^T J is singular, or the solve does not
    converge.
    """
    problem = EpochWls([sats], weighting)
    values, ok = problem.solve()
    if not ok[0]:
        raise GeometryError("single-epoch solve found no fix: singular or unconverged")
    clocks = {c: float(values[0, 3 + i]) for i, c in enumerate(problem.constellations)}
    return values[0, 0:3].copy(), clocks


def overdetermined(sats: Sequence[SatObservation]) -> bool:
    """Whether one epoch's satellites outnumber the unknowns of its fix, a
    position and one clock per constellation. An exactly determined epoch can
    converge to another root of the range equations, so a fix or a velocity
    seed is taken only from an overdetermined one."""
    return len(sats) > 3 + len(constellations_present(sats))


def initial_state(meas: EpochMeasurements, cfg: RunConfig) -> np.ndarray:
    """First state of a run ``cfg``, in ``cfg.layout``, for both families.

    Position is an LC run's fix when there is one, else the single-epoch WLS
    solution, whose clock biases fill the layout's clock states. Velocity
    starts at zero. Raises GeometryError when the epoch has neither.
    """
    layout = cfg.layout
    state = layout.zeros()
    if cfg.coupling == "lc" and meas.fix_available:
        state[POS] = meas.fix_pos
    elif meas.sats:
        pos, clocks = single_epoch_wls(meas.sats, cfg.weighting)
        state[POS] = pos
        for c, value in clocks.items():
            if c in layout.constellations:
                state[layout.clock_index(c)] = value
    else:
        raise GeometryError("cannot initialize: no fix and no satellites")
    return state


def position_seed(meas: EpochMeasurements, cfg: RunConfig) -> Optional[np.ndarray]:
    """Position of the second epoch for the two-point velocity seed of ``cfg``.

    The LC fix, or for TC the single-epoch WLS solution when the epoch is
    :func:`overdetermined`; None when the epoch gives neither.
    """
    if cfg.coupling == "lc":
        return np.asarray(meas.fix_pos, dtype=float) if meas.fix_available else None
    if not overdetermined(meas.sats):
        return None
    try:
        pos, _ = single_epoch_wls(meas.sats, cfg.weighting)
    except GeometryError:
        return None
    return pos


def seed_velocity(first: np.ndarray, meas: EpochMeasurements, cfg: RunConfig) -> None:
    """Two-point velocity seed of a run ``cfg``, for both estimator families:
    write the velocity from the first state ``first`` to the second epoch's
    :func:`position_seed` into ``first``, before the second epoch is
    predicted from it. Leaves ``first`` as it is when the epoch gives no
    seed."""
    seed = position_seed(meas, cfg)
    if seed is not None:
        first[VEL] = (seed - first[POS]) / meas.dt


def fix_hdop(meas: EpochMeasurements, receiver: np.ndarray) -> float:
    """HDOP that weights the epoch's LC fix, for both estimator families:
    the epoch's own, else computed from its satellites at ``receiver`` (the
    predicted position)."""
    if meas.fix_hdop is not None:
        return meas.fix_hdop
    return compute_hdop(meas.sats, receiver)


class FgoEstimator:
    """Sliding-window estimator of the run ``cfg``, over its state
    ``cfg.layout``; feed epochs in time order via :meth:`step`.

    ``window`` is the estimator's only history: it holds the epochs the next
    slide reads, the newest W + 1 for a finite window and every epoch in
    batch mode.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.window = FactorWindow(cfg)

    def step(self, meas: EpochMeasurements) -> StepResult:
        """Slide the window by ``meas`` and solve it. The result's residuals come
        from the window's last pricing: None for LC, at start-up, or when that
        pricing was at another state (a rejected trial)."""
        t0 = time.perf_counter()
        window = self.window
        if not window.n:
            state = initial_state(meas, self.cfg)
            window.push(meas, state, np.zeros(3))
            return StepResult(state.copy(), time.perf_counter() - t0, message="initialized")

        if meas.t <= window.slots["meas"][-1].t:
            raise ValueError("epochs must arrive in strictly increasing time order")
        prev = window.slots["state"][-1]
        if window.n == 1:
            # written into slot 0's own state, where the anchor prior pins it
            seed_velocity(prev, meas, self.cfg)
        geo = ecef_to_geodetic(prev[POS])
        accel_ecef = body_accel_to_ecef(meas.accel_body_mean, meas.attitude, geo)
        state = prev + transition(prev, accel_ecef, meas.dt)

        # looked up on the module at call time, once per epoch, so a tracer
        # that wraps fgo.build_window sees every window
        build_window(window, meas, state, accel_ecef)
        try:
            report = solve_lm(window, self.cfg.lm)
        except SolverError as exc:
            raise SolverError(f"epoch at t={meas.t}: {exc}") from exc
        states = window.slots["state"]
        states[:] = report.values.reshape(states.shape)
        return StepResult(
            states[-1].copy(),
            time.perf_counter() - t0,
            report.iterations,
            report.cost,
            report.converged,
            report.message,
            window.newest_residuals(report.values),
        )
