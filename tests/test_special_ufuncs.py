"""nightscan.tensor loads scipy's compiled erf and expit without scipy.special.

``scipy.special``'s ``__init__`` loads scipy's array-API layer, which is most
of a nightscan process's import cost.  These tests pin that no nightscan
module imports it, that the ufuncs loaded from the extension module give the
bytes ``scipy.special`` gives, and that the fallback to the ordinary import
gives them too.
"""

import importlib.machinery
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from nightscan import tensor

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent


def probe_values(dtype):
    """Edge values, subnormals and a seeded sweep over [-110, 110] in ``dtype``."""
    finfo = np.finfo(dtype)
    edges = [np.nan, np.inf, 0.0, 1e-45, 88.7, 104.0, 3.4e38, 1.0, 0.5]
    subnormals = [finfo.smallest_subnormal, finfo.smallest_subnormal * 3, finfo.tiny / 2, finfo.tiny / 1024]
    tiny = np.nextafter(dtype(finfo.tiny), dtype(0))
    fixed = np.array(edges + subnormals, dtype=dtype)
    sweep = np.random.default_rng(0).uniform(-110.0, 110.0, 100_000).astype(dtype)
    return np.concatenate([fixed, -fixed, [tiny, -tiny], sweep])


def assert_same_bytes(erf, expit, ref_erf, ref_expit):
    for dtype in (np.float32, np.float64):
        x = probe_values(dtype)
        with np.errstate(all="ignore"):
            for got, want in ((erf(x), ref_erf(x)), (expit(x), ref_expit(x))):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()


def check_fresh_process():
    """Run in a fresh interpreter: import all of nightscan, then compare bytes."""
    import nightscan

    names = sorted(m.name for m in pkgutil.iter_modules(nightscan.__path__))
    assert {"ablate", "cli", "gradcheck", "model", "tensor", "train"} <= set(names), names
    for name in names:
        importlib.import_module(f"nightscan.{name}")
    assert "scipy.special" not in sys.modules

    import scipy.special

    assert_same_bytes(tensor._erf, tensor._expit, scipy.special.erf, scipy.special.expit)


def test_nightscan_never_imports_scipy_special_and_matches_its_bytes():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    script = f"import sys; sys.path.insert(0, {str(TESTS)!r}); import test_special_ufuncs as t; t.check_fresh_process()"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _no_extension_found(monkeypatch, tmp_path):
    empty = importlib.machinery.ModuleSpec("scipy.special", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)


def _extension_without_names(monkeypatch, tmp_path):
    monkeypatch.setattr(importlib.util, "module_from_spec", lambda spec: types.ModuleType(spec.name))


@pytest.mark.parametrize("break_loader", [_no_extension_found, _extension_without_names])
def test_fallback_imports_scipy_special_with_same_bytes(monkeypatch, tmp_path, break_loader):
    import scipy.special

    break_loader(monkeypatch, tmp_path)
    erf, expit = tensor._special_ufuncs()
    assert erf is scipy.special.erf and expit is scipy.special.expit
    assert_same_bytes(erf, expit, tensor._erf, tensor._expit)
