"""Shared fixtures: bundled instances and a context factory."""

import os
from pathlib import Path

import numpy as np
import pytest

from abconv import (
    Box,
    FamilySearchGrid,
    GridSpec,
    LagrangianContext,
    ProblemInstance,
    RandomSpec,
    catalog_instance,
    random_instance,
)

# ``python -m abconv`` subprocesses import the package from this checkout,
# as the tests do through ``pythonpath`` in pyproject.toml.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# Every input/output dimension pair the fuzz gate runs.
FUZZ_DIMS = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]


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


@pytest.fixture
def fuzz_instance():
    """Seeded random exact instance on the fuzz gate's grids: 201/41/11 x
    points and 201/21/9 slope points per axis at dimension 1/2/3."""

    def _make(n, m, seed):
        raw = random_instance(RandomSpec(n=n, m=m), seed)
        return ProblemInstance.build(
            f=raw.f, g=raw.g, L=raw.L, phi=raw.phi, psi=raw.psi,
            x_search=GridSpec(Box.cube(n), {1: 201, 2: 41, 3: 11}[n], 2),
            psi_search=FamilySearchGrid.default(
                raw.psi, slope_points={1: 201, 2: 21, 3: 9}[m]),
            name=raw.name,
        )

    return _make
