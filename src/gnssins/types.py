"""Shared estimation types: constellations, state layout, epoch inputs and
the per-epoch result both estimator families return."""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .frames import EulerAngles


class Constellation(enum.Enum):
    GPS = "GPS"
    BEIDOU = "BeiDou"

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        for c in cls:
            if c.value.lower() == name.lower() or c.name.lower() == name.lower():
                return c
        raise ValueError(f"unknown constellation {name!r}")


def is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def check_numbers(record, key: str = "") -> None:
    """Check every number of a record by its fields' annotations (strings): a
    ``float`` or ``int`` field holds one finite number of that kind, a bool
    being none; a ``str`` field holds no number; an ``Optional[X]`` field may
    be None and is otherwise checked as ``X``; any other holds records,
    checked alike, or finite numbers, alone or as the items of a list, tuple
    or array or the values of a mapping. A ValueError names the top-level
    field (``key`` inside one) at fault."""
    for f in fields(record):
        name, value, ann = key or f.name, getattr(record, f.name), f.type
        optional = ann.startswith("Optional[")
        ann = ann[len("Optional[") : -1] if optional else ann
        if ann == "str" or (optional and value is None):
            continue
        numeric = ann in ("float", "int")
        kind, what = (numbers.Integral, "integers") if ann == "int" else (numbers.Real, "finite numbers")
        items = [value]
        if not numeric and isinstance(value, (list, tuple, Mapping, np.ndarray)):
            items = value.values() if isinstance(value, Mapping) else value
        for item in items:
            if is_dataclass(item) and not numeric:
                check_numbers(item, name)
            elif isinstance(item, bool) or not (isinstance(item, kind) and abs(item) < math.inf):
                raise ValueError(f"{name} must hold only {what}, got {item!r}")


POS = slice(0, 3)
VEL = slice(3, 6)


@dataclass(frozen=True)
class StateLayout:
    """Layout of a per-epoch state vector.

    Position (3) and velocity (3) in ECEF; tightly coupled states append one
    clock-bias entry (meters) per constellation, each a distinct Constellation.
    """

    constellations: tuple[Constellation, ...] = ()

    def __post_init__(self) -> None:
        for i, c in enumerate(self.constellations):
            if not isinstance(c, Constellation) or c in self.constellations[:i]:
                raise ValueError(f"a layout's clocks are distinct Constellations, got {c!r}")

    @property
    def dim(self) -> int:
        return VEL.stop + len(self.constellations)

    @property
    def has_clock(self) -> bool:
        return bool(self.constellations)

    def clock_index(self, constellation: Constellation) -> int:
        return VEL.stop + self.constellations.index(constellation)

    def clock_slice(self) -> slice:
        return slice(VEL.stop, self.dim)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass
class EpochMeasurements:
    """One GNSS epoch of estimator input.

    ``accel_body_mean`` is the epoch-averaged raw specific force in the body
    frame (bias not removed); ``attitude`` is the AHRS attitude for the epoch.
    ``sats`` drive tightly coupled updates; ``fix_pos``/``fix_hdop`` drive
    loosely coupled updates and are None when no fix is available. A
    non-finite input, or a ``dt`` or fix HDOP that is not positive, is
    rejected here, naming the epoch's time.
    """

    t: float
    dt: float
    accel_body_mean: np.ndarray
    attitude: EulerAngles
    sats: list = field(default_factory=list)
    fix_pos: Optional[np.ndarray] = None
    fix_hdop: Optional[float] = None

    def __post_init__(self) -> None:
        where = f"epoch at t={self.t}"
        if not math.isfinite(self.t):
            raise ValueError(f"{where}: non-finite time")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"{where}: dt {self.dt} is not finite and positive")
        self.accel_body_mean = np.asarray(self.accel_body_mean, dtype=float)
        if self.accel_body_mean.shape != (3,) or not np.isfinite(self.accel_body_mean).all():
            raise ValueError(
                f"{where}: specific force {self.accel_body_mean} is not three finite numbers"
            )
        att = self.attitude
        if not all(map(math.isfinite, (att.yaw, att.pitch, att.roll))):
            raise ValueError(f"{where}: non-finite attitude {att}")
        if self.fix_pos is None:
            return
        self.fix_pos = np.asarray(self.fix_pos, dtype=float)
        if self.fix_pos.shape != (3,) or not np.isfinite(self.fix_pos).all():
            raise ValueError(f"{where}: fix {self.fix_pos} is not three finite numbers")
        if self.fix_hdop is not None and not (math.isfinite(self.fix_hdop) and self.fix_hdop > 0):
            raise ValueError(f"{where}: fix HDOP {self.fix_hdop} is not finite and positive")

    @property
    def fix_available(self) -> bool:
        return self.fix_pos is not None


@dataclass
class StepResult:
    """One epoch's estimate from either family's ``step``, with the solve's
    diagnostics: LM iterations, final cost, converged flag and stop reason.
    The defaults are a filter step's, which solves nothing iteratively.
    A run's records (:class:`residual_analysis.EpochRecord`) extend it."""

    state: np.ndarray
    solve_time: float  # seconds spent in the whole step
    iterations: int = 0
    cost: float = math.nan
    converged: bool = True
    message: str = ""
    # the newest epoch's raw pseudorange residuals at ``state``, in the order
    # of its satellites, when the step already has them; None otherwise
    residuals: Optional[np.ndarray] = None


def constellations_present(sats: Sequence) -> tuple[Constellation, ...]:
    """Ordered tuple of constellations appearing in a satellite list."""
    seen: list[Constellation] = []
    for s in sats:
        if s.constellation not in seen:
            seen.append(s.constellation)
    return tuple(seen)
