"""Metamorphic properties of whole runs: a transformation of a dataset that
must leave every estimate unchanged, or change it in a known way."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins.canyon_sim import default_canyon_config, simulate
from gnssins.harness import RunConfig, run_estimator

CONFIGS = [
    RunConfig(estimator="ekf-lc"),
    RunConfig(estimator="ekf-tc"),
    RunConfig(estimator="fgo-lc"),
    RunConfig(estimator="fgo-tc"),
    RunConfig(estimator="fgo-tc", window=1),
    RunConfig(estimator="fgo-tc", window=None),
]


def solves(ds, cfg):
    """Each epoch's state (as bytes), iteration count, converged flag and stop message."""
    return [
        (r.state.tobytes(), r.iterations, r.converged, r.message)
        for r in run_estimator(ds, cfg).records
    ]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.estimator}-w{c.window}")
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    duration=st.integers(15, 40),
    shift=st.floats(-1e6, 1e6, allow_nan=False).filter(lambda s: s != 0.0),
)
def test_shifting_every_epoch_time_changes_no_estimate(cfg, seed, duration, shift):
    # every step reads an epoch's length (dt), never its time, which only
    # orders the epochs; LC fixes are generated from each run's own epochs
    ds = simulate(replace(default_canyon_config(seed), duration_s=float(duration)))
    shifted = replace(
        ds, epochs=[replace(e, t=e.t + shift) for e in ds.epochs], truth_t=ds.truth_t + shift
    )
    assert solves(shifted, cfg) == solves(ds, cfg)
