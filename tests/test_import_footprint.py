"""Importing gnssins must not load scipy.linalg and the packages it brings.

``nls_solver`` calls LAPACK's ``dpbsv`` in scipy's bundled OpenBLAS through
ctypes. Importing ``scipy.linalg`` instead would add about a quarter of a
second and a few hundred modules to every process start.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import gnssins
from gnssins import nls_solver

HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing")


def test_import_loads_no_scipy_linalg():
    if nls_solver._bundled_dpbsv() is None:
        pytest.skip("scipy bundles no OpenBLAS, so dpbsv comes from scipy.linalg.cython_lapack")
    src = str(Path(gnssins.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gnssins, gnssins.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == []
