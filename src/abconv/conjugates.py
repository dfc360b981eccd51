"""Conjugates with respect to generalized-quadratic classes.

The conjugate of ``f`` at a class member ``phi`` is ``sup_x phi(x) - f(x)``.
Two engines compute it: an exact eigendecomposition path for quadratic ``f``
on the whole space, and a refining grid search for everything else.  The grid
engine reports a *lower bound* of the true supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import global_tol
from .errors import InvariantViolation
from .objectives import INF, Box, Objective
from .quadratics import Family, GeneralizedQuadratic


@dataclass(frozen=True)
class ConjugateValue:
    """Result of a conjugate evaluation (value may be +/-inf)."""

    value: float
    maximizer: np.ndarray | None
    engine: str
    note: str = ""


@dataclass(frozen=True)
class GridSpec:
    """Refining grid search: mesh the box, then shrink 10x around the
    incumbent (clipped to the original box) for `refine_rounds` rounds."""

    box: Box
    points_per_axis: int = 201
    refine_rounds: int = 2

    def __post_init__(self) -> None:
        if not self.box.is_finite:
            raise InvariantViolation("grid search needs a finite box")
        if self.points_per_axis < 3:
            raise InvariantViolation("points_per_axis must be >= 3")
        if self.refine_rounds < 0:
            raise InvariantViolation("refine_rounds must be >= 0")

    @classmethod
    def cube(
        cls,
        dim: int,
        lo: float = -10.0,
        hi: float = 10.0,
        points_per_axis: int = 201,
        refine_rounds: int = 2,
    ) -> "GridSpec":
        return cls(Box.cube(dim, lo, hi), points_per_axis, refine_rounds)


def default_points_per_axis(dim: int) -> int:
    """Default mesh density of a ``dim``-dimensional search box."""
    return {1: 201, 2: 61, 3: 21}.get(dim, 9)


def _default_grid(dim: int) -> GridSpec:
    return GridSpec(Box.cube(dim), points_per_axis=default_points_per_axis(dim))


# ---------------------------------------------------------------------------
# Closed-form engine


def _as_quad(f: Objective | GeneralizedQuadratic) -> GeneralizedQuadratic:
    if isinstance(f, GeneralizedQuadratic):
        return f
    if not f.is_quadratic or f.domain_box is not None:
        raise InvariantViolation("closed-form engine needs an unconstrained quadratic")
    return f.quad


def conjugate_closed_form(
    f: Objective | GeneralizedQuadratic,
    phi: GeneralizedQuadratic,
    tol: float | None = None,
) -> ConjugateValue:
    """Exact ``sup_x phi(x) - f(x)`` for quadratic f on the whole space.

    The difference is a quadratic ``x.D x + v.x + k``; the sup is finite iff
    D is negative semidefinite and v has no component in ker D, in which case
    it equals ``k - (1/4) sum coeff_i^2 / w_i`` over the negative eigenpairs.
    """
    q = _as_quad(f)
    if q.dim != phi.dim:
        raise InvariantViolation("dimension mismatch in conjugate")
    tol = global_tol() if tol is None else tol
    D = phi.A - q.A
    v = phi.u - q.u
    k = phi.c - q.c
    w, V = np.linalg.eigh(D)
    scale = tol * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if np.any(w > scale):
        return ConjugateValue(INF, None, "closed", "unbounded-direction")
    coeffs = V.T @ v
    ker = np.abs(w) <= scale
    ktol = tol * max(1.0, float(np.max(np.abs(v), initial=0.0)))
    if np.any(np.abs(coeffs[ker]) > ktol):
        return ConjugateValue(INF, None, "closed", "linear-escape")
    neg = w < -scale
    value = k
    x = np.zeros(q.dim)
    if np.any(neg):
        t = -0.5 * coeffs[neg] / w[neg]
        value = k + float(t @ coeffs[neg] + (t * t) @ w[neg])
        x = V[:, neg] @ t
    return ConjugateValue(float(value), x, "closed")


def minimize_quadratic(
    q: GeneralizedQuadratic, tol: float | None = None
) -> tuple[float, np.ndarray | None]:
    """Global minimum of a quadratic: value (may be -inf) and a minimizer."""
    res = conjugate_closed_form(q, GeneralizedQuadratic.zero(q.dim), tol)
    return -res.value, res.maximizer


def _quadratic_sup_many(
    D: np.ndarray, v: np.ndarray, k: float | np.ndarray, tol: float
) -> np.ndarray:
    """``sup_x x.D_b x + v.x + k_b`` for a stack of symmetric matrices.

    ``D`` has shape (B, n, n); the linear terms ``v`` are shared, shape
    (N, n), or per matrix, shape (B, N, n); ``k`` is a scalar or one
    constant per matrix.  Returns shape (B, N): +inf along an ascent
    direction or a kernel direction with a nonzero linear term, else
    ``k - (1/4) sum coeff_i^2 / w_i`` over the negative eigenpairs (the same
    split as ``conjugate_closed_form``)."""
    w, V = np.linalg.eigh(D)
    k = np.broadcast_to(np.asarray(k, dtype=float), (len(D),))
    scale = tol * np.maximum(1.0, np.max(np.abs(w), axis=1, initial=0.0))[:, None]
    live = ~np.any(w > scale, axis=1)
    out = np.full((len(D), v.shape[-2]), INF)
    w, V, scale = w[live], V[live], scale[live]
    if v.ndim == 3:
        v = v[live]
    coeffs = v @ V
    neg = w < -scale
    div = np.where(neg, w, INF)
    # Left fold from 0.0 over the eigenpairs: the order of ``sum(axis=-1)``
    # without its per-row cost on a short axis.
    total = np.zeros(coeffs.shape[:-1])
    for i in range(w.shape[1]):
        total += coeffs[..., i] ** 2 / div[:, None, i]
    vals = k[live][:, None] - 0.25 * total
    ker = ~neg  # live rows have no ascent direction
    if np.any(ker):
        ktol = tol * np.maximum(1.0, np.max(np.abs(v), axis=-1, initial=0.0))
        for i in np.flatnonzero(np.any(ker, axis=0)):
            vals[(np.abs(coeffs[..., i]) > ktol) & ker[:, None, i]] = INF
    out[live] = vals
    return out


# ---------------------------------------------------------------------------
# Grid engine


def conjugate_grid(
    f: Objective,
    phi: GeneralizedQuadratic,
    grid: GridSpec,
) -> ConjugateValue:
    """Grid lower bound for ``sup_x phi(x) - f(x)``; +inf points of f are
    skipped. Returns -inf with a note when every window point is infeasible."""
    if f.dim != phi.dim:
        raise InvariantViolation("dimension mismatch in conjugate")
    window = grid.box
    best_val = -INF
    best_x: np.ndarray | None = None
    for _ in range(grid.refine_rounds + 1):
        X = window.mesh(grid.points_per_axis)
        vals = np.asarray(phi(X), dtype=float) - f.values(X)
        idx = int(np.argmax(vals))
        if float(vals[idx]) > best_val:
            best_val = float(vals[idx])
            best_x = X[idx]
        if best_x is None:
            break
        window = window.shrink_around(best_x, 0.1)
    if best_val == -INF:
        return ConjugateValue(-INF, None, "grid", "improper-window")
    return ConjugateValue(best_val, best_x, "grid")


def conjugate_value(
    f: Objective,
    phi: GeneralizedQuadratic,
    engine: str = "auto",
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> ConjugateValue:
    """Dispatch to the closed-form engine when exact, else the grid engine."""
    closed_ok = f.is_quadratic and f.domain_box is None
    if engine == "closed" or (engine == "auto" and closed_ok):
        return conjugate_closed_form(f, phi, tol)
    if engine in ("grid", "auto"):
        return conjugate_grid(f, phi, grid if grid is not None else _default_grid(f.dim))
    raise InvariantViolation(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# Class parameter grids and biconjugates


@dataclass(frozen=True)
class FamilySearchGrid:
    """Finite sweep over class members: curvature list x slope mesh.

    The parameter set is fixed (no refinement) so that every consumer of the
    same grid sees the same candidate members; suprema computed over it are
    lower bounds of the true class suprema.
    """

    family: Family
    slope_box: Box
    slope_points_per_axis: int
    curvatures: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.slope_box.dim != self.family.dim:
            raise InvariantViolation("slope box dimension mismatch")
        if not self.slope_box.is_finite:
            raise InvariantViolation("slope box must be finite")
        if self.slope_points_per_axis < 1:
            raise InvariantViolation("slope_points_per_axis must be >= 1")
        if len(self.curvatures) == 0:
            raise InvariantViolation("curvature list must be nonempty")
        for a in self.curvatures:
            if not self.family.curvature.admits(a):
                raise InvariantViolation(f"curvature {a} not admissible")

    @classmethod
    def default(
        cls,
        family: Family,
        lo: float = -10.0,
        hi: float = 10.0,
        slope_points: int | None = None,
        curvature_points: int = 21,
    ) -> "FamilySearchGrid":
        if slope_points is None:
            slope_points = {1: 201, 2: 41, 3: 13}.get(family.dim, 9)
        return cls(
            family,
            Box.cube(family.dim, lo, hi),
            slope_points,
            tuple(float(a) for a in family.curvature.grid(lo, hi, curvature_points)),
        )

    def slopes(self) -> np.ndarray:
        """All slope vectors, shape (n_slopes, dim), C order (cached)."""
        return _slope_mesh(self.slope_box.lower.tobytes(),
                           self.slope_box.upper.tobytes(),
                           self.slope_box.dim,
                           self.slope_points_per_axis)

    def member(self, alpha: float, slope) -> GeneralizedQuadratic:
        return GeneralizedQuadratic.iso(self.family.dim, alpha, slope)

    @property
    def size(self) -> int:
        return len(self.curvatures) * self.slope_points_per_axis**self.family.dim


@lru_cache(maxsize=64)
def _slope_mesh(lo_bytes: bytes, hi_bytes: bytes, dim: int, points: int) -> np.ndarray:
    lo = np.frombuffer(lo_bytes, dtype=float)
    hi = np.frombuffer(hi_bytes, dtype=float)
    mesh = Box(lo.copy(), hi.copy()).mesh(points)
    mesh.setflags(write=False)
    return mesh


def family_conjugate_table(
    f: Objective,
    search: FamilySearchGrid,
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> np.ndarray:
    """Conjugate values of f at every member of the search grid.

    Shape ``(len(curvatures), n_slopes)``; entries may be +inf.  Uses one
    batched eigendecomposition over the curvatures when f is an unconstrained
    quadratic, otherwise falls back to the grid engine per member.
    """
    slopes = search.slopes()
    if f.is_quadratic and f.domain_box is None:
        q = f.quad
        tol = global_tol() if tol is None else tol
        betas = np.asarray(search.curvatures)[:, None, None]
        D = betas * np.eye(q.dim) - q.A
        return _quadratic_sup_many(D, slopes - q.u, -q.c, tol)
    n = len(slopes)
    out = np.empty((len(search.curvatures), n))
    g = grid if grid is not None else _default_grid(f.dim)
    for i, beta in enumerate(search.curvatures):
        for j in range(n):
            out[i, j] = conjugate_grid(f, search.member(beta, slopes[j]), g).value
    return out


# Query points per block.  A block's (points, slopes) arrays, 1.5 MB each at
# the 3-D fuzz slope mesh, then stay near a core's 2 MB L2 cache: on the fuzz
# meshes 64-256 points per block timed alike and 4096 about 30% slower.
_QUERY_BLOCK = 256


def _biconjugate_argmax(
    X: np.ndarray, search: FamilySearchGrid, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``biconjugate_many`` values plus, per point, the flat table index of
    the first member attaining them (-1 where no finite member exists).

    Every block has at least two rows unless X has one: a one-row product
    goes through BLAS's matrix-vector path, whose rounding differs, and the
    value at a point must not depend on the batch it comes in."""
    X = np.asarray(X, dtype=float)
    slopes = search.slopes()
    n = len(slopes)
    rows = []
    for i, beta in enumerate(search.curvatures):
        finite = np.isfinite(table[i])
        if finite.all():
            rows.append((beta, table[i], None, i * n + np.arange(n)))
        elif finite.any():
            # Gathered, so that a -inf entry (a grid-engine improper window)
            # is skipped rather than turned into +inf.
            cols = np.flatnonzero(finite)
            rows.append((beta, table[i][cols], cols, i * n + cols))
    values = np.full(len(X), -INF)
    winner = np.full(len(X), -1)
    start = 0
    for Xb in np.array_split(X, max(1, -(-len(X) // _QUERY_BLOCK))):
        best, won = values[start:start + len(Xb)], winner[start:start + len(Xb)]
        sq = np.sum(Xb * Xb, axis=1)[:, None]
        lin = Xb @ slopes.T
        buf = np.empty_like(lin)
        at = np.arange(len(Xb))
        for beta, row, cols, members in rows:
            if cols is None:
                vals = np.add(beta * sq, lin, out=buf)
            else:
                vals = lin[:, cols]
                np.add(beta * sq, vals, out=vals)
            np.subtract(vals, row, out=vals)
            j = vals.argmax(axis=1)
            top = vals[at, j]
            better = top > best
            won[better] = members[j[better]]
            np.maximum(best, top, out=best)
        start += len(Xb)
    return values, winner


def _biconjugate_lower_bound(
    X: np.ndarray, members: np.ndarray, search: FamilySearchGrid, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max of ``phi(x) - f*(phi)`` over the given flat table indices of
    finite members: a lower bound of ``biconjugate_many`` at every x.  Also
    returns, per x, a bound on the magnitudes of the summed terms, which
    bounds the rounding by which the two can disagree."""
    slopes = search.slopes()
    betas = np.asarray(search.curvatures)[members // len(slopes)]
    S = slopes[members % len(slopes)]
    conj = table.ravel()[members]
    lower = np.empty(len(X))
    for start in range(0, len(X), _QUERY_BLOCK):
        Xb = X[start:start + _QUERY_BLOCK]
        vals = betas * np.sum(Xb * Xb, axis=1)[:, None] + Xb @ S.T - conj
        lower[start:start + len(Xb)] = vals.max(axis=1)
    scale = (np.max(np.abs(betas)) * np.sum(X * X, axis=1)
             + np.abs(X).sum(axis=1) * np.max(np.abs(S))
             + np.max(np.abs(conj)))
    return lower, scale


def biconjugate_many(
    f: Objective,
    X: np.ndarray,
    search: FamilySearchGrid,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Second conjugate ``sup over members (phi(x) - f*(phi))`` on a batch.

    A lower bound of the class-convex envelope value at each x; equals f(x)
    exactly when f is class-convex at x and the attaining member lies on the
    grid.  Non-finite conjugate entries are skipped: the +inf of excluded
    members and the -inf of the grid engine's improper windows alike, so a
    point with no finite member gets -inf.
    """
    if table is None:
        table = family_conjugate_table(f, search)
    return _biconjugate_argmax(X, search, table)[0]


def biconjugate_at(
    f: Objective,
    x,
    search: FamilySearchGrid,
    table: np.ndarray | None = None,
) -> float:
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(biconjugate_many(f, x, search, table)[0])


def is_phi_convex_at(
    f: Objective,
    x,
    search: FamilySearchGrid,
    tol: float = 1e-6,
    table: np.ndarray | None = None,
) -> bool:
    """Whether the class biconjugate recovers f at x (within tol)."""
    fx = f.value(x)
    if fx == INF:
        raise InvariantViolation("x outside the domain of f")
    return abs(biconjugate_at(f, x, search, table) - fx) <= tol


# ---------------------------------------------------------------------------
# eps-subdifferentials


def eps_subdiff_contains(
    f: Objective,
    phi: GeneralizedQuadratic,
    x,
    eps: float,
    engine: str = "auto",
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> bool:
    """Membership test ``f(x) + f*(phi) <= phi(x) + eps`` (with slack tol)."""
    if eps < 0:
        raise InvariantViolation("eps must be nonnegative")
    tol = global_tol() if tol is None else tol
    fx = f.value(x)
    if fx == INF:
        raise InvariantViolation("x outside the domain of f")
    fstar = conjugate_value(f, phi, engine=engine, grid=grid).value
    if fstar == INF:
        return False
    return fx + fstar <= float(phi(np.asarray(x, dtype=float))) + eps + tol


def dom_conjugate_probe(
    f: Objective,
    search: FamilySearchGrid,
    eps_list: tuple[float, ...],
    sample_points: np.ndarray,
    table: np.ndarray | None = None,
) -> list[tuple[float, tuple[float, ...]]]:
    """Members that lie in every eps-subdifferential image over the samples.

    For each grid member the best slack ``min_x f(x) + f*(phi) - phi(x)`` is
    compared against ``min(eps_list)``; survivors approximate the conjugate's
    effective domain from inside (finite samples only — never exact).
    """
    if len(eps_list) == 0:
        raise InvariantViolation("eps_list must be nonempty")
    if min(eps_list) < 0:
        raise InvariantViolation("eps values must be nonnegative")
    if table is None:
        table = family_conjugate_table(f, search)
    X = np.asarray(sample_points, dtype=float)
    fvals = f.values(X)
    ok = np.isfinite(fvals)
    if not np.any(ok):
        return []
    X, fvals = X[ok], fvals[ok]
    slopes = search.slopes()
    sq = np.sum(X * X, axis=1)
    lin = X @ slopes.T
    eps_min = float(min(eps_list))
    tol = global_tol()
    survivors: list[tuple[float, tuple[float, ...]]] = []
    for i, beta in enumerate(search.curvatures):
        row = table[i]
        phi_vals = beta * sq[:, None] + lin
        slack = np.min(fvals[:, None] + row[None, :] - phi_vals, axis=0)
        for j in np.nonzero(slack <= eps_min + tol)[0]:
            survivors.append((float(beta), tuple(float(s) for s in slopes[j])))
    return survivors
