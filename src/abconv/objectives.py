"""Extended-real objectives over boxes, and weak-convexity moduli."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .quadratics import GeneralizedQuadratic, LinearMap, _ByBytes

INF = float("inf")


@dataclass(frozen=True, eq=False)
class Box(_ByBytes):
    """Axis-aligned box; infinite bounds allowed (whole-space axes)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise InvariantViolation("box bound shapes differ")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise InvariantViolation("box bounds must not be NaN")
        if np.any(lo > hi):
            raise InvariantViolation("box has lower > upper on some axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        lo.setflags(write=False)
        hi.setflags(write=False)

    @classmethod
    def cube(cls, dim: int, lo: float = -10.0, hi: float = 10.0) -> "Box":
        return cls(np.full(dim, lo), np.full(dim, hi))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    @property
    def is_whole_space(self) -> bool:
        """No finite bound: every point without a NaN coordinate is inside."""
        return bool(np.all(self.lower == -INF) and np.all(self.upper == INF))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def contains_batch(self, X: np.ndarray) -> np.ndarray:
        """``contains`` row by row on a batch (N, dim), folded over the
        axes: numpy reduces a short axis about 20 times slower."""
        if X.shape[1:] != self.lower.shape:
            raise InvariantViolation("batch rows do not have the box's dimension")
        lo, hi = self.lower, self.upper
        inside = (X[:, 0] >= lo[0]) & (X[:, 0] <= hi[0])
        for k in range(1, self.dim):
            inside &= (X[:, k] >= lo[k]) & (X[:, k] <= hi[k])
        return inside

    def mesh(self, points_per_axis: int) -> np.ndarray:
        """All grid points, shape (points_per_axis**dim, dim), C order."""
        if not self.is_finite:
            raise InvariantViolation("cannot mesh an infinite box")
        return mesh_windows(self.lower[None], self.upper[None], points_per_axis)[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if not self.is_finite:
            raise InvariantViolation("cannot sample an infinite box")
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))


def shrink_windows(lower, upper, centers, factor: float):
    """Windows of ``factor`` times the width of the finite windows
    ``lower``/``upper``, centered near ``centers`` and clipped so they never
    leave the windows they shrink.  Elementwise, so a row gets the same bits
    alone as among other rows.  The mesher already rejects infinite boxes;
    the check here keeps a direct call from returning infinite windows."""
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvariantViolation("cannot shrink an infinite window")
    center = np.clip(centers, lower, upper)
    half = 0.5 * factor * (upper - lower)
    return np.maximum(lower, center - half), np.minimum(upper, center + half)


def mesh_windows(lower, upper, points: int) -> np.ndarray:
    """``Box.mesh`` on stacked finite windows: rows of ``lower``/``upper``
    are window bounds; returns shape (windows, points**dim, dim), each
    window's mesh in C order.  Each axis of each window gets the bits of a
    one-axis ``np.linspace``: that call takes a different rounding branch
    for every entry once any step is 0, so zero-step axes get their own."""
    n_win, dim = lower.shape
    mesh = np.empty((n_win,) + (points,) * dim + (dim,))
    for k in range(dim):
        lo, hi = lower[:, k], upper[:, k]
        axis = np.empty((n_win, points))
        flat = (hi - lo) / max(points - 1, 1) == 0
        for part in (flat, ~flat):
            if part.any():
                axis[part] = np.linspace(lo[part], hi[part], points, axis=1)
        mesh[..., k] = axis.reshape((n_win,) + (1,) * k + (points,) + (1,) * (dim - 1 - k))
    return mesh.reshape(n_win, points**dim, dim)


def _checked(values: np.ndarray) -> np.ndarray:
    if np.any(np.isnan(values)) or np.any(values == -INF):
        raise InvariantViolation("objective produced NaN or -inf on batch")
    return values


@dataclass(frozen=True)
class Objective:
    """Extended-real function on R^dim: quadratic or opaque callable, plus an
    optional domain box (+inf outside). Never takes the value -inf."""

    dim: int
    quad: GeneralizedQuadratic | None = None
    fn: Callable[[np.ndarray], float] | None = None
    domain_box: Box | None = None

    def __post_init__(self) -> None:
        if (self.quad is None) == (self.fn is None):
            raise InvariantViolation("objective needs exactly one of quad | fn")
        if self.quad is not None and self.quad.dim != self.dim:
            raise InvariantViolation("quadratic dimension mismatch")
        if self.domain_box is not None and self.domain_box.dim != self.dim:
            raise InvariantViolation("domain box dimension mismatch")

    # -- constructors --------------------------------------------------

    @classmethod
    def quadratic(
        cls,
        q: GeneralizedQuadratic,
        domain_box: Box | None = None,
    ) -> "Objective":
        return cls(q.dim, quad=q, domain_box=domain_box)

    @classmethod
    def from_callable(
        cls,
        dim: int,
        fn: Callable[[np.ndarray], float],
        domain_box: Box | None = None,
    ) -> "Objective":
        return cls(dim, fn=fn, domain_box=domain_box)

    # -- evaluation ------------------------------------------------------

    @property
    def exact(self) -> GeneralizedQuadratic | None:
        """The quadratic when the closed-form engines apply (a quadratic
        with no domain box), else None."""
        return self.quad if self.domain_box is None else None

    def value(self, x) -> float:
        """Extended-real value at one point."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self.dim,):
            raise InvariantViolation(f"point shape {x.shape} != ({self.dim},)")
        if self.domain_box is not None and not self.domain_box.contains(x):
            return INF
        v = float(self.quad(x)) if self.quad is not None else float(self.fn(x))
        if np.isnan(v) or v == -INF:
            raise InvariantViolation(f"objective produced {v} at {x}")
        return v

    def values(self, X: np.ndarray) -> np.ndarray:
        """Extended-real values on a batch (N, dim).

        A callable is called only on rows inside the domain box, once per
        distinct row (rows with equal bytes, so -0.0 and 0.0 differ), as
        ``value`` calls it point by point; every other row is +inf."""
        X = np.asarray(X, dtype=float)
        box = self.domain_box
        if self.quad is not None:
            out = _checked(np.asarray(self.quad(X), dtype=float))
            # Without a finite bound only a NaN row is outside the box, and
            # its value is NaN, which raised above.
            if box is None or box.is_whole_space:
                return out
            return np.where(box.contains_batch(X), out, INF)
        inside = slice(None) if box is None else box.contains_batch(X)
        memo: dict[bytes, float] = {}

        def call(row: np.ndarray) -> float:
            key = row.tobytes()
            v = memo.get(key)
            if v is None:
                v = memo[key] = float(self.fn(row))
            return v

        out = np.full(len(X), INF)
        out[inside] = _checked(np.fromiter(map(call, X[inside]), float))
        return out


@dataclass(frozen=True)
class WeakConvexityReport:
    """Smallest sigma >= 0 (found or certified) making f + sigma*||.||^2 convex."""

    modulus: float
    certified: bool
    method: str
    detail: str = ""


# Random segments of the midpoint estimate, drawn from a fixed seed.
_MODULUS_SAMPLES = 4000
_MODULUS_SEED = 0


def weak_convexity_modulus(f: Objective) -> WeakConvexityReport:
    """Weak-convexity modulus of an objective.

    Quadratic: exact, ``max(0, -lambda_min(A))`` (certified).  Opaque
    callables: midpoint-violation estimate on random segments inside the
    domain box (not certified; a lower bound on the true modulus).
    """
    if f.quad is not None:
        lam = f.quad.min_eigenvalue()
        return WeakConvexityReport(
            modulus=max(0.0, -lam),
            certified=True,
            method="eigenvalue",
            detail=f"lambda_min={lam:.12g}",
        )
    box = f.domain_box if f.domain_box is not None else Box.cube(f.dim)
    if not box.is_finite:
        box = Box.cube(f.dim)
    rng = np.random.default_rng(_MODULUS_SEED)
    X = box.sample(_MODULUS_SAMPLES, rng)
    Y = box.sample(_MODULUS_SAMPLES, rng)
    M = 0.5 * (X + Y)
    fx, fy, fm = f.values(X), f.values(Y), f.values(M)
    ok = np.isfinite(fx) & np.isfinite(fy) & np.isfinite(fm)
    # f is sigma-weakly convex iff f(m) <= (f(x)+f(y))/2 + sigma*||x-y||^2/4
    gap = fm[ok] - 0.5 * (fx[ok] + fy[ok])
    dist2 = np.sum((X[ok] - Y[ok]) ** 2, axis=1)
    pos = dist2 > 1e-16
    sigma = max(0.0, float(np.max(4.0 * gap[pos] / dist2[pos], initial=0.0)))
    return WeakConvexityReport(
        modulus=sigma,
        certified=False,
        method="midpoint-sampling",
        detail=f"samples={int(np.sum(ok))}",
    )


def shifted_modulus(f: Objective, b: float, L: LinearMap) -> float:
    """Modulus of ``f + (b*||.||^2 term) o L`` from the modulus ``a`` of f:
    ``a + b * ||L||^2`` (valid for b >= 0; certified inputs only)."""
    if b < 0:
        raise InvariantViolation("curvature shift b must be nonnegative")
    rep = weak_convexity_modulus(f)
    if not rep.certified:
        raise InvariantViolation("shifted modulus needs a certified base modulus")
    return rep.modulus + b * L.operator_norm**2
