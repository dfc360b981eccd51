"""Seeded random instance generation for fuzzing the duality inequalities.

The same seed always produces the same instance (bit for bit): everything is
drawn from one ``numpy.random.default_rng(seed)`` stream in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conjugates import check_mesh_size, default_points_per_axis
from .duality import ProblemInstance
from .errors import InstanceParseError, InvariantViolation
from .instances import _as_float, _as_int
from .objectives import Objective
from .quadratics import CurvatureSpec, Family, GeneralizedQuadratic, LinearMap


@dataclass(frozen=True)
class RandomSpec:
    """Shape and curvature ranges for generated instances.

    ``f_modulus`` / ``g_modulus`` bound the weak-convexity modulus (the least
    eigenvalue is set to minus a value drawn uniformly from the range, so a
    range of (0, 0) yields convex quadratics)."""

    n: int = 1
    m: int = 1
    f_modulus: tuple[float, float] = (0.0, 2.0)
    g_modulus: tuple[float, float] = (0.0, 2.0)
    l_scale: float = 1.0
    slope_scale: float = 2.0

    def __post_init__(self) -> None:
        numbers = (*self.f_modulus, *self.g_modulus, self.l_scale, self.slope_scale)
        if not np.all(np.isfinite(numbers)):
            raise InstanceParseError("ranges and scales must be finite")
        if self.n < 1 or self.m < 1:
            raise InstanceParseError("dimensions must be positive")
        for dim in (self.n, self.m):
            try:
                check_mesh_size(default_points_per_axis(dim), dim)
            except InvariantViolation as exc:
                raise InstanceParseError(f"default search grid: {exc}") from None
        for lo, hi in (self.f_modulus, self.g_modulus):
            if lo < 0 or hi < lo:
                raise InstanceParseError("modulus range needs 0 <= lo <= hi")
        if self.l_scale <= 0 or self.slope_scale <= 0:
            raise InstanceParseError("scales must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "RandomSpec":
        if not isinstance(data, dict):
            raise InstanceParseError("random spec must be a JSON object")
        kwargs = {}
        for key in ("n", "m"):
            if key in data:
                kwargs[key] = _as_int(data[key], key)
        for key in ("f_modulus", "g_modulus"):
            if key in data:
                pair = data[key]
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InstanceParseError(f"{key} must be [lo, hi]")
                kwargs[key] = (_as_float(pair[0], key), _as_float(pair[1], key))
        for key in ("l_scale", "slope_scale"):
            if key in data:
                kwargs[key] = _as_float(data[key], key)
        return cls(**kwargs)


def _random_weakly_convex(
    dim: int, modulus_range: tuple[float, float], slope_scale: float, rng
) -> GeneralizedQuadratic:
    """Symmetric matrix with least eigenvalue exactly -modulus."""
    modulus = float(rng.uniform(*modulus_range))
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    spread = np.sort(rng.uniform(0.0, 2.0, size=dim))
    spread[0] = 0.0
    eigs = spread - modulus
    A = basis @ np.diag(eigs) @ basis.T
    A = 0.5 * (A + A.T)
    u = rng.normal(scale=slope_scale, size=dim)
    c = float(rng.normal())
    return GeneralizedQuadratic(dim, A, u, c)


def random_instance(spec: RandomSpec, seed: int) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    fq = _random_weakly_convex(spec.n, spec.f_modulus, spec.slope_scale, rng)
    gq = _random_weakly_convex(spec.m, spec.g_modulus, spec.slope_scale, rng)
    L = LinearMap(rng.normal(scale=spec.l_scale, size=(spec.m, spec.n)))
    phi = Family(spec.n, CurvatureSpec.nonpos())
    psi = Family(spec.m, CurvatureSpec.nonpos())
    return ProblemInstance.build(
        f=Objective.quadratic(fq),
        g=Objective.quadratic(gq),
        L=L,
        phi=phi,
        psi=psi,
        name=f"random-{seed}",
    )
