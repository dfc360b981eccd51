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

from .config import TOL, values_agree
from .errors import InvariantViolation
from .objectives import INF, Box, Objective, mesh_windows, shrink_windows
from .quadratics import Family, GeneralizedQuadratic, _ByBytes, quadratic_form


@dataclass(frozen=True, eq=False)
class ConjugateValue(_ByBytes):
    """Result of a conjugate evaluation (value may be +/-inf)."""

    value: float
    maximizer: np.ndarray | None
    engine: str
    note: str = ""


# The most points a mesh may have: 10**6 points of dimension 3 take 24 MB.
MAX_MESH_POINTS = 10**6


def check_mesh_size(points_per_axis: int, dim: int) -> None:
    """Reject ``points_per_axis ** dim`` points above ``MAX_MESH_POINTS``,
    before anything is meshed; 2**20 already exceeds the cap, so the power
    is never formed for a huge dim."""
    if points_per_axis > 1 and points_per_axis ** min(dim, 20) > MAX_MESH_POINTS:
        raise InvariantViolation(
            f"a mesh of {points_per_axis} points per axis in dimension {dim} "
            f"exceeds {MAX_MESH_POINTS} points")


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
        check_mesh_size(self.points_per_axis, self.box.dim)

    @classmethod
    def default(cls, dim: int) -> "GridSpec":
        """The default search mesh: the cube [-10, 10]^dim at
        ``default_points_per_axis(dim)``, refined twice."""
        return cls(Box.cube(dim), default_points_per_axis(dim))

    def mesh(self) -> np.ndarray:
        """The box meshed at ``points_per_axis``, C order, read-only; one
        shared array per distinct grid."""
        box = self.box
        return _box_mesh(box.lower.tobytes(), box.upper.tobytes(), self.points_per_axis)


def default_points_per_axis(dim: int) -> int:
    """Default mesh density of a ``dim``-dimensional search box."""
    return {1: 201, 2: 61, 3: 21}.get(dim, 9)


# ---------------------------------------------------------------------------
# Closed-form engine


def conjugate_closed_form(
    f: Objective | GeneralizedQuadratic,
    phi: GeneralizedQuadratic,
) -> ConjugateValue:
    """Exact ``sup_x phi(x) - f(x)`` for quadratic f on the whole space.

    The difference is a quadratic ``x.D x + v.x + k``; the sup is finite iff
    D is negative semidefinite and v has no component in ker D, in which case
    it equals ``k - (1/4) sum coeff_i^2 / w_i`` over the negative eigenpairs.
    """
    q = f if isinstance(f, GeneralizedQuadratic) else f.exact
    if q is None:
        raise InvariantViolation("closed-form engine needs an unconstrained quadratic")
    if q.dim != phi.dim:
        raise InvariantViolation("dimension mismatch in conjugate")
    D = phi.A - q.A
    v = phi.u - q.u
    k = phi.c - q.c
    # eigh sorts w ascending, so max|w| and the ascent test read its ends,
    # and a kernel direction exists only when the last one is not negative.
    w, V = np.linalg.eigh(D)
    scale = TOL * max(1.0, float(-w[0]), float(w[-1]))
    if w[-1] > scale:
        return ConjugateValue(INF, None, "closed", "unbounded-direction")
    coeffs = V.T @ v
    if w[-1] >= -scale:
        ker = np.abs(w) <= scale
        ktol = TOL * max(1.0, float(np.max(np.abs(v), initial=0.0)))
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


def minimize_quadratic(q: GeneralizedQuadratic) -> tuple[float, np.ndarray | None]:
    """Global minimum of a quadratic: value (may be -inf) and a minimizer."""
    res = conjugate_closed_form(q, GeneralizedQuadratic.zero(q.dim))
    return -res.value, res.maximizer


def _quadratic_sup_many(D: np.ndarray, v: np.ndarray, k: float | np.ndarray) -> np.ndarray:
    """``sup_x x.D_b x + v.x + k_b`` for a stack of symmetric matrices.

    ``D`` has shape (B, n, n); the linear terms ``v`` are shared, shape
    (N, n), or per matrix, shape (B, N, n); ``k`` is a scalar or one
    constant per matrix.  Returns shape (B, N): +inf along an ascent
    direction or a kernel direction with a nonzero linear term, else
    ``k - (1/4) sum coeff_i^2 / w_i`` over the negative eigenpairs (the same
    split as ``conjugate_closed_form``).

    ``eigh`` sorts each row of eigenvalues ascending, and a row with a NaN
    is NaN throughout, so max|w| and the ascent test read the first and
    last columns.  The live matrices are gathered only when some are not
    live, and the kernel directions are tested only when a live row has
    one."""
    w, V = np.linalg.eigh(D)
    scale = TOL * np.maximum(1.0, np.maximum(-w[:, 0], w[:, -1]))
    live = ~(w[:, -1] > scale)
    if not live.any():
        return np.full((len(D), v.shape[-2]), INF)
    k = np.asarray(k, dtype=float).reshape(-1, 1)  # (1, 1) or one row per matrix
    every = live.all()
    if not every:
        w, V, scale = w[live], V[live], scale[live]
        if len(k) == len(live):
            k = k[live]
        if v.ndim == 3:
            v = v[live]
    coeffs = v @ V
    neg = w < -scale[:, None]
    div = np.where(neg, w, INF)
    # Left fold from 0.0 over the eigenpairs: the order of ``sum(axis=-1)``
    # without its per-row cost on a short axis.
    total = np.zeros(coeffs.shape[:-1])
    for i in range(w.shape[1]):
        total += coeffs[..., i] ** 2 / div[:, None, i]
    vals = k - 0.25 * total
    if not neg[:, -1].all():  # a live row with a kernel direction
        ker = ~neg
        ktol = TOL * np.maximum(1.0, np.max(np.abs(v), axis=-1, initial=0.0))
        for i in np.flatnonzero(ker.any(axis=0)):
            vals[(np.abs(coeffs[..., i]) > ktol) & ker[:, None, i]] = INF
    if every:
        return vals
    out = np.full((len(D), v.shape[-2]), INF)
    out[live] = vals
    return out


# ---------------------------------------------------------------------------
# Grid engine


# Entries per block of a batched kernel's largest intermediate (the grid
# engine's member meshes): 2**18 entries, 2 MB, however many windows or
# members there are.
_VALUE_BLOCK = 1 << 18


def _group_windows(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Identical windows among the rows: the first row of each distinct
    window and each row's window index.  The key is the bytes of the
    bounds, so windows that differ only in the sign of a zero bound (meshes
    that differ in the sign of a zero coordinate) stay apart."""
    bounds = np.concatenate([lower, upper], axis=1)
    keys = bounds.view(np.dtype((np.void, bounds.itemsize * bounds.shape[1])))[:, 0]
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    return first, ids


def _grid_sup_table(
    f: Objective,
    mats: np.ndarray,
    U: np.ndarray,
    c: float,
    grid: GridSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Refining-grid lower bounds of ``sup_x x.A x + u.x + c - f(x)`` for
    every matrix ``A`` of the stack ``mats`` (k, dim, dim) paired with every
    row ``u`` of ``U``.

    Every member starts on ``grid.box`` and, after each round, shrinks its
    window 10x around its incumbent; a later round replaces the incumbent
    only when strictly better, and a member whose first window is wholly
    infeasible stops with -inf.  Each round sorts its members by window,
    then curvature, meshes and evaluates f once per chunk of distinct
    windows, and forms the x.A x terms with one stacked ``quadratic_form``
    call per chunk of (window, curvature) pairs.  A member's value is
    ``quadratic_form(X, A) + X @ u + c - f(X)`` on its window mesh, the
    arithmetic of ``GeneralizedQuadratic.__call__``, with one matrix-vector
    product per member (a batched ``X @ U.T`` would round differently).
    Chunks of windows, of (window, curvature) pairs and of members keep
    every intermediate to about ``_VALUE_BLOCK`` entries.  Returns values of shape
    (len(mats), len(U)) and the maximizers (NaN rows where the value is
    -inf)."""
    n_lin, dim, points = len(U), f.dim, grid.points_per_axis
    n_pts, size = points**dim, len(mats) * n_lin
    best = np.full(size, -INF)
    best_x = np.full((size, dim), np.nan)
    lower = np.tile(grid.box.lower, (size, 1))
    upper = np.tile(grid.box.upper, (size, 1))
    live = np.arange(size)
    step = max(1, _VALUE_BLOCK // (n_pts * dim))
    for r in range(grid.refine_rounds + 1):
        if r:
            lower[live], upper[live] = shrink_windows(
                lower[live], upper[live], best_x[live], 0.1)
        first, ids = _group_windows(lower[live], upper[live])
        order = np.argsort(ids, kind="stable")  # by window, then curvature
        members, ids = live[order], ids[order]
        curv = members // n_lin
        # Runs of one (window, curvature) pair share their x.A x terms.
        new = np.ones(len(members), dtype=bool)
        new[1:] = (ids[1:] != ids[:-1]) | (curv[1:] != curv[:-1])
        pair, starts = np.cumsum(new) - 1, np.append(np.flatnonzero(new), len(members))
        pair_win, pair_curv = ids[new], curv[new]
        for w0 in range(0, len(first), step):
            rows = live[first[w0:w0 + step]]
            Xs = mesh_windows(lower[rows], upper[rows], points)
            fX = f.values(Xs.reshape(-1, dim)).reshape(len(rows), n_pts)
            q0, q1 = np.searchsorted(pair_win, [w0, w0 + step])
            for p0 in range(q0, q1, step):
                p1 = min(p0 + step, q1)
                quad = quadratic_form(Xs[pair_win[p0:p1] - w0], mats[pair_curv[p0:p1]])
                for b in range(starts[p0], starts[p1], step):
                    span = slice(b, min(b + step, starts[p1]))
                    block, win = members[span], ids[span] - w0
                    # In place, to hold fewer value blocks; addition
                    # commutes, so these are the bits of quad + lin + c - f.
                    vals = np.matmul(Xs[win], U[block % n_lin][:, :, None])[:, :, 0]
                    vals += quad[pair[span] - p0]
                    vals += c
                    vals -= fX[win]
                    idx = vals.argmax(axis=1)
                    top = vals[np.arange(len(block)), idx]
                    up = top > best[block]
                    best[block[up]] = top[up]
                    best_x[block[up]] = Xs[win[up], idx[up]]
        if r == 0:
            live = np.flatnonzero(best > -INF)
    shape = (len(mats), n_lin)
    return best.reshape(shape), best_x.reshape(shape + (dim,))


def conjugate_grid(
    f: Objective,
    phi: GeneralizedQuadratic,
    grid: GridSpec,
) -> ConjugateValue:
    """Grid lower bound for ``sup_x phi(x) - f(x)``; +inf points of f are
    skipped. Returns -inf with a note when every window point is infeasible."""
    if f.dim != phi.dim:
        raise InvariantViolation("dimension mismatch in conjugate")
    values, maximizers = _grid_sup_table(f, phi.A[None], phi.u[None], phi.c, grid)
    if values[0, 0] == -INF:
        return ConjugateValue(-INF, None, "grid", "improper-window")
    return ConjugateValue(float(values[0, 0]), maximizers[0, 0], "grid")


def conjugate_value(
    f: Objective,
    phi: GeneralizedQuadratic,
    grid: GridSpec | None = None,
) -> ConjugateValue:
    """The closed-form engine when ``f.exact`` is set, else the grid engine
    (on ``grid``, the default mesh without one)."""
    if f.exact is not None:
        return conjugate_closed_form(f, phi)
    return conjugate_grid(f, phi, grid if grid is not None else GridSpec.default(f.dim))


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
        check_mesh_size(self.slope_points_per_axis, self.family.dim)
        if len(self.curvatures) == 0:
            raise InvariantViolation("curvature list must be nonempty")
        for a in self.curvatures:
            if not self.family.curvature.admits(a):
                raise InvariantViolation(f"curvature {a} not admissible")

    @classmethod
    def default(
        cls,
        family: Family,
        slope_points: int | None = None,
        curvature_points: int = 21,
    ) -> "FamilySearchGrid":
        """Slopes in the cube [-10, 10]^dim, curvatures in [-10, 10]."""
        if slope_points is None:
            slope_points = {1: 201, 2: 41, 3: 13}.get(family.dim, 9)
        return cls(
            family,
            Box.cube(family.dim),
            slope_points,
            tuple(float(a) for a in family.curvature.grid(points=curvature_points)),
        )

    def slopes(self) -> np.ndarray:
        """All slope vectors, shape (n_slopes, dim), C order (cached)."""
        box = self.slope_box
        return _box_mesh(box.lower.tobytes(), box.upper.tobytes(), self.slope_points_per_axis)

    def member_at(self, k: int) -> GeneralizedQuadratic:
        """The member at flat index k of every table over this grid:
        curvature-major, slopes in C order (``table.flat[k]``)."""
        slopes = self.slopes()
        i, j = divmod(int(k), len(slopes))
        return GeneralizedQuadratic.iso(self.family.dim, self.curvatures[i], slopes[j])

    @property
    def size(self) -> int:
        return len(self.curvatures) * self.slope_points_per_axis**self.family.dim


@lru_cache(maxsize=64)
def _box_mesh(lo_bytes: bytes, hi_bytes: bytes, points: int) -> np.ndarray:
    """``Box.mesh`` of the box with these bounds, read-only and shared by
    every grid on an equal box."""
    lo = np.frombuffer(lo_bytes, dtype=float)
    hi = np.frombuffer(hi_bytes, dtype=float)
    mesh = Box(lo.copy(), hi.copy()).mesh(points)
    mesh.setflags(write=False)
    return mesh


def family_conjugate_table(
    f: Objective,
    search: FamilySearchGrid,
    grid: GridSpec | None = None,
) -> np.ndarray:
    """Conjugate values of f at every member of the search grid.

    Shape ``(len(curvatures), n_slopes)``.  When f is an unconstrained
    quadratic, one batched eigendecomposition over the curvatures gives the
    exact values, +inf where unbounded.  Otherwise the grid engine refines
    every member at once in batched rounds: a round groups its members by
    window, meshes all the distinct windows together, evaluates f on them
    in one call per chunk of about ``_VALUE_BLOCK`` mesh entries, and forms
    every member's values with one ``quadratic_form`` call per chunk of
    (window, curvature) pairs and one batched matrix-vector product.  Each
    entry equals ``conjugate_grid`` at that member bit for bit: a lower
    bound, -inf where the member's first window is wholly infeasible.
    """
    slopes = search.slopes()
    q = f.exact
    if q is not None:
        betas = np.asarray(search.curvatures)[:, None, None]
        D = betas * np.eye(q.dim) - q.A
        return _quadratic_sup_many(D, slopes - q.u, -q.c)
    if f.dim != search.family.dim:
        raise InvariantViolation("dimension mismatch in conjugate")
    mats = np.asarray(search.curvatures)[:, None, None] * np.eye(f.dim)
    g = grid if grid is not None else GridSpec.default(f.dim)
    return _grid_sup_table(f, mats, slopes, 0.0, g)[0]


# Query points per block.  A block's (points, slopes) arrays, 1.5 MB each at
# the 3-D fuzz slope mesh, then stay near a core's 2 MB L2 cache: on the fuzz
# meshes 64-256 points per block timed alike and 4096 about 30% slower.
_QUERY_BLOCK = 256


def _never_one_row(X: np.ndarray) -> np.ndarray:
    """X, with a lone row repeated: BLAS rounds a one-row product
    (``L.apply``, ``X @ u``, ``Xb @ slopes.T``) differently from the batched
    product the same row gets in a longer X.  The x.A x terms need no
    padding: ``quadratic_form`` rounds a row alike at every batch size."""
    return np.repeat(X, 2, axis=0) if len(X) == 1 else X


def _biconjugate_argmax(
    X: np.ndarray, search: FamilySearchGrid, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``biconjugate_many`` values plus, per point, the flat table index of
    the first member attaining them (-1 where no finite member exists).

    A lone row is evaluated twice and every block has at least two rows, so
    no product goes through BLAS's matrix-vector path, whose rounding
    differs: the value at a point does not depend on the batch it comes in.
    The value is the curvatures' tops reduced by ``np.maximum`` in curvature
    order, the winner the first curvature attaining it; past a NaN top (an
    overflowing |x|) the winner stays the one before it."""
    n_rows = len(X)
    X = _never_one_row(np.asarray(X, dtype=float))
    values = np.full(len(X), -INF)
    winner = np.full(len(X), -1)
    finite = np.isfinite(table)
    live = np.flatnonzero(finite.any(axis=1))
    if not len(X) or not len(live):
        return values[:n_rows], winner[:n_rows]
    if not finite.all():
        # An entry that is not finite (a grid engine's -inf too) excludes its
        # member: as +inf it gives -inf at every point where |x|^2 is finite.
        table = np.where(finite, table, INF)
    slopes = search.slopes()
    start = 0
    for Xb in np.array_split(X, max(1, -(-len(X) // _QUERY_BLOCK))):
        sq = np.sum(Xb * Xb, axis=1)[:, None]
        lin = Xb @ slopes.T
        buf = np.empty_like(lin)
        at = np.arange(len(Xb))
        tops = np.empty((len(live), len(Xb)))
        col = np.empty((len(live), len(Xb)), dtype=winner.dtype)
        for k, i in enumerate(live):
            vals = np.add(search.curvatures[i] * sq, lin, out=buf)
            np.subtract(vals, table[i], out=vals)
            col[k] = vals.argmax(axis=1)
            tops[k] = vals[at, col[k]]
        stop = start + len(Xb)
        values[start:stop] = tops.max(axis=0)
        nan = np.isnan(tops)
        if nan.any():
            tops[np.logical_or.accumulate(nan, axis=0)] = -INF
        k = tops.argmax(axis=0)
        winner[start:stop] = np.where(
            tops[k, at] > -INF, live[k] * len(slopes) + col[k, at], -1)
        start = stop
    return values[:n_rows], winner[:n_rows]


def _biconjugate_lower_bound(
    X: np.ndarray, members: np.ndarray, search: FamilySearchGrid, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max of ``phi(x) - f*(phi)`` over the given flat table indices of
    finite members: a lower bound of ``biconjugate_many`` at every x.  Also
    returns, per x, a bound on the magnitudes of the summed terms, which
    bounds the rounding by which the two can disagree.

    Each value is the max of one row of the product of the points
    ``(|x|^2, x, 1)`` with the members ``(beta, s, -f*)``, in blocks of
    ``_QUERY_BLOCK`` points.  It rounds differently from the kernel, by at
    most ``(dim + 2) * 2**-53`` times the bound: a prune test only."""
    slopes = search.slopes()
    W = np.column_stack([np.asarray(search.curvatures)[members // len(slopes)],
                         slopes[members % len(slopes)], -table.ravel()[members]])
    sq = np.sum(X * X, axis=1)
    P = np.column_stack([sq, X, np.ones(len(X))])
    lower = np.empty(len(X))
    for start in range(0, len(X), _QUERY_BLOCK):
        lower[start:start + _QUERY_BLOCK] = (P[start:start + _QUERY_BLOCK] @ W.T).max(axis=1)
    top = np.abs(W).max(axis=0)
    scale = top[0] * sq + np.abs(X).sum(axis=1) * top[1:-1].max() + top[-1]
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
    table: np.ndarray | None = None,
) -> bool:
    """Whether the class biconjugate recovers f at x (within ``VALUE_TOL``)."""
    fx = f.value(x)
    if fx == INF:
        raise InvariantViolation("x outside the domain of f")
    return values_agree(biconjugate_at(f, x, search, table), fx)


# ---------------------------------------------------------------------------
# eps-subdifferentials


def eps_subdiff_contains(
    f: Objective,
    phi: GeneralizedQuadratic,
    x,
    eps: float,
    grid: GridSpec | None = None,
) -> bool:
    """Membership test ``f(x) + f*(phi) <= phi(x) + eps`` (slack ``TOL``)."""
    if eps < 0:
        raise InvariantViolation("eps must be nonnegative")
    return _subdiff_holds(_subdiff_terms(f, phi, x, grid), eps)


def _subdiff_terms(f, phi, x, grid=None) -> tuple[float, float, float]:
    """The eps-free terms ``(f(x), f*(phi), phi(x))`` of ``eps_subdiff_contains``."""
    fx = f.value(x)
    if fx == INF:
        raise InvariantViolation("x outside the domain of f")
    fstar = conjugate_value(f, phi, grid=grid).value
    return fx, fstar, float(phi(np.asarray(x, dtype=float)))


def _subdiff_holds(terms: tuple[float, float, float], eps: float) -> bool:
    """``eps_subdiff_contains`` at one eps, from the terms of ``_subdiff_terms``."""
    fx, fstar, phi_x = terms
    return fstar != INF and fx + fstar <= phi_x + eps + TOL


def dom_conjugate_probe(
    f: Objective,
    search: FamilySearchGrid,
    eps_list: tuple[float, ...],
    sample_points: np.ndarray,
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
    table = family_conjugate_table(f, search)
    X = np.asarray(sample_points, dtype=float)
    fvals = f.values(X)
    ok = np.isfinite(fvals)
    X, fvals = X[ok], fvals[ok]
    slopes = search.slopes()
    sq = np.sum(X * X, axis=1)
    lin = X @ slopes.T
    eps_min = float(min(eps_list))
    survivors: list[tuple[float, tuple[float, ...]]] = []
    for i, beta in enumerate(search.curvatures):
        row = table[i]
        phi_vals = beta * sq[:, None] + lin
        slack = np.min(fvals[:, None] + row[None, :] - phi_vals, axis=0, initial=INF)
        for j in np.nonzero(slack <= eps_min + TOL)[0]:
            survivors.append((float(beta), tuple(float(s) for s in slopes[j])))
    return survivors
