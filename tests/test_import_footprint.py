"""What importing gnssins loads, and which of its modules import which.

Importing gnssins must not load scipy.linalg and the packages it brings.
``nls_solver`` calls LAPACK's ``dpbsv`` through ctypes in the OpenBLAS that
numpy bundles and has already loaded, so the process holds one BLAS library.
Importing ``scipy.linalg`` instead would add about a quarter of a second and
a few hundred modules to every process start, and a second OpenBLAS.

Both estimator families and the simulator read their noise model from
``noise_models``: the factor graph takes nothing from the filter, and the
simulator nothing from the residual analysis nor the solver.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gnssins
from gnssins import nls_solver

HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing")


def import_gnssins_and_print(expression: str) -> str:
    """What a fresh interpreter prints for ``expression`` once it has imported gnssins."""
    src = str(Path(gnssins.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import gnssins, gnssins.cli; print({expression})"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout


def test_import_loads_no_scipy_linalg():
    if nls_solver._bundled_lapack() is None:
        pytest.skip("numpy bundles no OpenBLAS, so dpbsv comes from scipy.linalg.cython_lapack")
    assert import_gnssins_and_print(f"' '.join(m for m in {HEAVY!r} if m in sys.modules)").split() == []


def test_one_openblas_per_process():
    if nls_solver._bundled_lapack() is None or not Path("/proc/self/maps").exists():
        pytest.skip("needs numpy's bundled OpenBLAS and /proc/self/maps")
    mapped = "' '.join(sorted({l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l}))"
    assert len(import_gnssins_and_print(mapped).split()) == 1


def gnssins_imports(source: Path) -> set[str]:
    """The gnssins modules that ``source`` imports, by their name in the package."""
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            # spelled absolute: "from . import x" is "from gnssins import x"
            base = f"gnssins{'.' + node.module if node.module else ''}" if node.level else node.module
            modules = [f"{base}.{alias.name}" for alias in node.names] if base == "gnssins" else [base]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        names.update(m.split(".")[1] for m in modules if m.startswith("gnssins."))
    return names


@pytest.mark.parametrize(
    "module, forbidden",
    [("fgo", "ekf"), ("canyon_sim", "residual_analysis"), ("canyon_sim", "nls_solver")],
)
def test_layering(module, forbidden):
    imports = gnssins_imports(Path(gnssins.__file__).parent / f"{module}.py")
    assert "noise_models" in imports
    assert forbidden not in imports


# imported but unused where they are imported, each for a reader outside the
# module: the tracer wraps harness.single_epoch_wls, and the acceptance suite
# imports initial_covariance from ekf
UNUSED_ON_PURPOSE = {("harness", "single_epoch_wls"), ("ekf", "initial_covariance")}


def unused_imports(source: Path) -> set[str]:
    """The names ``source`` imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    unused = {
        (path.stem, name)
        for path in sorted(Path(gnssins.__file__).parent.glob("*.py"))
        for name in unused_imports(path)
    }
    assert unused == UNUSED_ON_PURPOSE
