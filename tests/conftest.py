"""Shared fixtures: bundled instances and a context factory."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from abconv import LagrangianContext, RandomSpec, catalog_instance

# ``python -m abconv`` subprocesses import the package from this checkout,
# as the tests do through ``pythonpath`` in pyproject.toml.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# Every input/output dimension pair the fuzz gate runs.
FUZZ_DIMS = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]


def infeasible_part_dict(part: str) -> dict:
    """An instance file with n = m = 1, L = id, f = g = x^2 over
    nonpositive curvatures, whose ``part`` ("f" or "g") has the domain box
    [20, 30], off every search mesh: +inf on the whole x mesh (and for g
    also on the y mesh and on L of the x mesh)."""
    quad = {"kind": "quadratic", "A": [[1.0]], "u": [0.0], "c": 0.0}
    data = {"schema_version": "1", "name": f"{part}-off-mesh", "n": 1, "m": 1,
            "L": [[1.0]], "f": dict(quad), "g": dict(quad),
            "phi": {"curvature": "nonpos"}, "psi": {"curvature": "nonpos"},
            "search": {"points_per_axis": 21, "psi_slope_points_per_axis": 5,
                       "psi_curv_grid": 3}}
    data[part]["domain_box"] = {"lower": [20.0], "upper": [30.0]}
    return data


@pytest.fixture(scope="session")
def inst47():
    return catalog_instance("ex4.7")


@pytest.fixture(scope="session")
def inst47r():
    return catalog_instance("ex4.7-reversed")


@pytest.fixture(scope="session")
def inst48():
    return catalog_instance("ex4.8")


@pytest.fixture(scope="session")
def inst56():
    return catalog_instance("ex5.6")


@pytest.fixture(scope="session")
def inst610():
    return catalog_instance("ex6.10")


@pytest.fixture(scope="session")
def inst611():
    return catalog_instance("ex6.11")


@pytest.fixture
def make_ctx():
    """Fresh LagrangianContext per call (the context memoizes sweep tables)."""

    def _make(instance):
        return LagrangianContext(instance)

    return _make


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def fuzz_instance():
    """Seeded random exact instance on the fuzz gate's grids, built by
    ``scripts/fuzz_duality.py``'s own ``sized_instance``."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "fuzz_duality.py"
    spec = importlib.util.spec_from_file_location("fuzz_duality_script", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return lambda n, m, seed: fuzz.sized_instance(RandomSpec(n=n, m=m), seed)
