"""GNSS/INS sensor fusion toolkit.

Four integration schemes over a shared state (ECEF position and velocity,
plus one receiver clock per constellation when tightly coupled): loosely and
tightly coupled extended Kalman filters, and loosely and tightly coupled
sliding-window factor-graph optimization solved by Levenberg-Marquardt.
Includes a synthetic urban-canyon dataset generator, residual/GMM analysis
tools and a CLI for running comparisons and window-size sweeps.
"""

from . import (
    canyon_sim,
    ekf,
    fgo,
    frames,
    harness,
    noise_models,
    nls_solver,
    residual_analysis,
)
from .frames import EulerAngles, Geodetic
from .harness import ESTIMATORS, RunConfig, compare, run_estimator, sweep_windows
from .noise_models import SatObservation, WeightingParams
from .types import Constellation, EpochMeasurements, StateLayout

__version__ = "0.1.0"

__all__ = [
    "ESTIMATORS",
    "Constellation",
    "EpochMeasurements",
    "EulerAngles",
    "Geodetic",
    "RunConfig",
    "SatObservation",
    "StateLayout",
    "WeightingParams",
    "canyon_sim",
    "compare",
    "ekf",
    "fgo",
    "frames",
    "harness",
    "noise_models",
    "nls_solver",
    "residual_analysis",
    "run_estimator",
    "sweep_windows",
]
