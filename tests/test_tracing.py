"""The benchmark tracer's hold on the estimators' call sites.

``benchmarks/tracing.py`` wraps module attributes where callers look them up
at call time. A site that no longer resolves shows as ``missing``; one that
resolves but is no longer called loses its spans silently, so both are
checked here on a short run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gnssins import harness
from gnssins.canyon_sim import noise_free_config, simulate

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # registered before it runs, as its dataclasses look their module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def site_attribute(module_name, path):
    owner = importlib.import_module(f"gnssins.{module_name}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr


def descendants(spans, root, skip):
    """The spans under ``root``, not counting those under a ``skip`` span."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out, todo = [], [root.id]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            if child.name != skip:
                todo.append(child.id)
    return out


def test_tracer_sees_every_layer_and_restores(tracing):
    sites = [site_attribute(module, path) for module, path, _, _ in tracing.SITES]
    originals = [getattr(owner, attr) for owner, attr in sites]
    ds = simulate(noise_free_config(duration_s=10.0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for estimator in ("ekf-lc", "ekf-tc", "fgo-tc", "fgo-lc"):
            # through the module attribute, where the tracer wrapped it
            harness.run_estimator(ds, harness.RunConfig(estimator=estimator, window=5))
    finally:
        tracer.restore()
    assert tracer.missing == []

    runs = [s for s in tracer.spans if s.name == "harness.run_estimator"]
    assert [s.attrs["estimator"] for s in runs] == ["ekf-lc", "ekf-tc", "fgo-tc", "fgo-lc"]
    for run in runs[:2]:
        # the filter loop's own calls: the start-up's single-epoch solve
        # prices pseudoranges too, so its spans are left out
        names = {s.name for s in descendants(tracer.spans, run, skip="fgo.single_epoch_wls")}
        assert "ekf.predict" in names, run.attrs
        assert any(n.startswith("frames.") for n in names), run.attrs
        assert any(n.startswith("noise_models.") for n in names), run.attrs
    for run in runs[2:]:
        # one slide per epoch after the first, looked up on the module: a
        # window slid some other way would read fgo.build_window.calls as 0
        spans = descendants(tracer.spans, run, skip=None)
        builds = [s for s in spans if s.name == "fgo.build_window"]
        assert len(builds) == len(ds.epochs) - 1 == 9, run.attrs
        assert all(s.attrs["blocks"] > 0 and s.attrs["dim"] > 0 for s in builds)
        # and one window solve per slide, in the same step: an LC window's
        # closed form is taken inside solve_lm, where the tracer sees it
        solves = [s for s in spans if s.name == "nls_solver.solve_lm"]
        assert [s.parent for s in solves] == [s.parent for s in builds], run.attrs
        assert all(s.attrs["jacobian_evals"] >= 1 for s in solves)
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(sites, originals))
