"""Lagrangian values, minimax gap probes, and the value function.

The Lagrangian couples a point with an output-class member:
``L(x, psi) = f(x) + psi(Lx) - g*(psi)``.  Its sup-inf (LD) equals the
conjugate dual over the same member grid; its inf-sup (LP) is the primal with
g replaced by its class biconjugate.  The gap between them is probed three
ways: the intersection property of member pairs, lower semicontinuity of the
value function at 0, and a support-point test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .config import global_tol
from .conjugates import (
    _biconjugate_argmax,
    _biconjugate_lower_bound,
    _quadratic_sup_many,
    biconjugate_at,
    biconjugate_many,
    conjugate_value,
    is_phi_convex_at,
    minimize_quadratic,
)
from .duality import (
    DualResult,
    ProblemInstance,
    _composite_min,
    _ext_add,
    composite_inf_table,
    dcp_value,
    g_conjugate_table,
    primal_value,
)
from .errors import InvariantViolation
from .objectives import INF
from .quadratics import GeneralizedQuadratic, combine, pullback

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# lp_value evaluates g** exactly at every 32nd feasible mesh point first: 7,
# 53 and 42 points of the 1-, 2- and 3-D fuzz meshes.  Every 16th was slower
# there and on the catalog, every 64th slower on four catalog instances.
_LP_SAMPLE_STRIDE = 32
# Relative slack on the prune test, far above the few ulps by which a lower
# bound computed in a different batch can exceed the exact value.
_LP_PRUNE_RTOL = 1e-12


@dataclass
class LagrangianContext:
    """An instance plus memoized sweep tables.

    The tables are computed once and shared by every value defined on the
    same member grid, which keeps sup-inf <= inf-sup a finite minimax fact
    rather than a numerical accident.  Cache entries are write-once: a key is
    only ever associated with the single value the conjugate engines produce.
    """

    instance: ProblemInstance
    _gstar_table: np.ndarray | None = field(default=None, repr=False)
    _inf_table: np.ndarray | None = field(default=None, repr=False)
    _gstar_cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def gstar_table(self) -> np.ndarray:
        with self._lock:
            if self._gstar_table is None:
                self._gstar_table = g_conjugate_table(self.instance)
            return self._gstar_table

    def inf_table(self) -> np.ndarray:
        with self._lock:
            if self._inf_table is None:
                self._inf_table = composite_inf_table(self.instance)
            return self._inf_table

    def g_conjugate(self, psi: GeneralizedQuadratic) -> float:
        key = (psi.A.tobytes(), psi.u.tobytes(), psi.c)
        if key not in self._gstar_cache:
            value = conjugate_value(
                self.instance.g, psi, grid=self.instance.y_search
            ).value
            self._gstar_cache.setdefault(key, value)
        return self._gstar_cache[key]


def lagrangian_value(
    ctx: LagrangianContext, x, psi: GeneralizedQuadratic
) -> float:
    """``f(x) + psi(Lx) - g*(psi)``; +inf outside dom f, -inf when
    ``g*(psi) = +inf`` (such members are excluded from the dual sup)."""
    inst = ctx.instance
    if not inst.psi.contains(psi):
        raise InvariantViolation("psi is not a member of the output class")
    fx = inst.f.value(x)
    if fx == INF:
        return INF
    gs = ctx.g_conjugate(psi)
    if gs == INF:
        return -INF
    return fx + float(psi(inst.L.apply(np.asarray(x, dtype=float)))) - gs


def ld_value(ctx: LagrangianContext) -> DualResult:
    """``sup over members of inf_x L(x, psi)`` — identical, number for
    number, to the conjugate dual sweep on the same grid."""
    return dcp_value(
        ctx.instance, inf_table=ctx.inf_table(), gstar_table=ctx.gstar_table()
    )


@dataclass(frozen=True)
class LpResult:
    value: float
    minimizer: np.ndarray | None
    flags: tuple[str, ...] = ()


def lp_value(ctx: LagrangianContext) -> LpResult:
    """``inf_x [f(x) + g**(Lx)]`` over the x search mesh, with the class
    biconjugate of g taken over the shared member grid (grid-truncated).

    Bound and prune, with the value and the first-index minimizer of the
    dense evaluation: g** is evaluated exactly on a strided sample of the
    feasible mesh, the members winning there bound g** from below at the
    other points, and only points whose bound does not clear the sample's
    best total are evaluated exactly.  A sample best that is not finite
    (no feasible point, or g** = -inf at one) evaluates every feasible
    point."""
    inst = ctx.instance
    search, table = inst.psi_search, ctx.gstar_table()
    X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
    fv = inst.f.values(X)
    LX = inst.L.apply(X)

    def rows(idx: np.ndarray) -> np.ndarray:
        # Never a one-row batch: BLAS rounds a one-row product differently
        # from the full-mesh product of the dense evaluation.
        return LX[np.repeat(idx, 2) if len(idx) == 1 else idx]

    total = np.full(len(X), INF)
    feasible = np.flatnonzero(fv != INF)
    sample = feasible[::_LP_SAMPLE_STRIDE]
    rest = np.delete(feasible, np.s_[::_LP_SAMPLE_STRIDE])
    gdd, winner = _biconjugate_argmax(rows(sample), search, table)
    total[sample] = fv[sample] + gdd[:len(sample)]
    incumbent = np.min(total[sample], initial=INF)
    if np.isfinite(incumbent) and len(rest):
        winner = winner[:len(sample)]
        lower, scale = _biconjugate_lower_bound(
            LX[rest], np.unique(winner[winner >= 0]), search, table)
        slack = _LP_PRUNE_RTOL * (np.abs(fv[rest]) + scale + abs(incumbent))
        rest = rest[~(fv[rest] + lower > incumbent + slack)]
    total[rest] = fv[rest] + biconjugate_many(
        inst.g, rows(rest), search, table)[:len(rest)]
    idx = int(np.argmin(total))
    value = float(total[idx])
    flags: tuple[str, ...] = ("grid_truncated",)
    if value == INF:
        return LpResult(INF, None, flags + ("infeasible_window",))
    if value == -INF:
        flags = flags + ("biconjugate_minus_infinity",)
    return LpResult(value, X[idx], flags)


def convexification_preserves_value(
    ctx: LagrangianContext, tol: float = 1e-6
) -> bool:
    """Whether replacing g with its class biconjugate keeps the primal value:
    ``inf f + g**(L.) == inf f + g(L.)`` within tol."""
    lp = lp_value(ctx).value
    primal = primal_value(ctx.instance).value
    if not np.isfinite(lp) or not np.isfinite(primal):
        return lp == primal
    return abs(lp - primal) <= tol


def psi_convexity_at_optimum(
    ctx: LagrangianContext, x0, tol: float = 1e-6
) -> bool:
    """Whether g agrees with its class biconjugate at L x0, where x0 must
    attain the primal value (within tol) — raises otherwise."""
    inst = ctx.instance
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    value = _ext_add(inst.f.value(x0), inst.g.value(inst.L.apply(x0)))
    primal = primal_value(inst).value
    if not (np.isfinite(value) and np.isfinite(primal)) or abs(value - primal) > max(tol, 1e-6):
        raise InvariantViolation("x0 does not attain the primal value")
    return is_phi_convex_at(
        inst.g, inst.L.apply(x0), inst.psi_search, tol, table=ctx.gstar_table()
    )


# ---------------------------------------------------------------------------
# Intersection property


@dataclass(frozen=True)
class IntersectionWitness:
    """t0 in [0,1] with ``t0*phi1 + (1-t0)*phi2 >= alpha`` everywhere."""

    t0: float
    alpha: float
    min_value: float

    @property
    def holds(self) -> bool:
        return self.min_value >= self.alpha


def _combo_min(phi1: GeneralizedQuadratic, phi2: GeneralizedQuadratic, t: float) -> float:
    value, _ = minimize_quadratic(combine(t, phi1, 1.0 - t, phi2))
    return value


def _combo_matrices(
    phi1: GeneralizedQuadratic, phi2: GeneralizedQuadratic, ts: np.ndarray
) -> np.ndarray:
    """Matrices of ``t*phi1 + (1-t)*phi2`` for every t, formed as ``combine``
    forms them; shape ``(len(ts), dim, dim)``."""
    s = ts[:, None, None]
    M = s * phi1.A + (1.0 - s) * phi2.A
    return 0.5 * (M + np.swapaxes(M, 1, 2))


def _combo_min_many(
    phi1: GeneralizedQuadratic, phi2: GeneralizedQuadratic, ts: np.ndarray, tol: float
) -> np.ndarray:
    """``_combo_min`` at every t, with one batched eigendecomposition:
    ``min q = -sup(-q)``, and ``sup(-q)`` is +inf along an ascent direction
    or a kernel direction with a nonzero slope."""
    s = ts[:, None]
    v = -(s * phi1.u + (1.0 - s) * phi2.u)
    k = -(ts * phi1.c + (1.0 - ts) * phi2.c)
    D = -_combo_matrices(phi1, phi2, ts)
    return -_quadratic_sup_many(D, v[:, None, :], k, tol)[:, 0]


def intersection_property(
    phi1: GeneralizedQuadratic,
    phi2: GeneralizedQuadratic,
    alpha: float,
    t_tol: float = 1e-10,
    value_tol: float = 1e-9,
) -> IntersectionWitness | None:
    """Search for a convex combination globally above the level alpha.

    ``m(t) = min_z [t*phi1 + (1-t)*phi2](z)`` is concave on [0,1] (pointwise
    infimum of functions affine in t), so a golden-section search converges;
    candidates where m jumps from -inf (curvature sign change, slope
    cancellation) are probed explicitly.  Returns the best witness when
    ``max m >= alpha - value_tol``, ties toward smaller t0."""
    if phi1.dim != phi2.dim:
        raise InvariantViolation("dimension mismatch")
    cache: dict[float, float] = {}

    def m(t: float) -> float:
        t = min(1.0, max(0.0, t))
        if t not in cache:
            cache[t] = _combo_min(phi1, phi2, t)
        return cache[t]

    candidates: set[float] = {0.0, 1.0}

    # slope cancellation: u(t) = t*u1 + (1-t)*u2 = 0 (needle maxima of m)
    du = phi1.u - phi2.u
    roots = [
        float(-phi2.u[k] / du[k])
        for k in range(phi1.dim)
        if abs(du[k]) > 1e-15
    ]
    for t in roots:
        if 0.0 <= t <= 1.0:
            u_t = t * phi1.u + (1.0 - t) * phi2.u
            scale = max(1.0, float(np.max(np.abs(phi1.u))), float(np.max(np.abs(phi2.u))))
            if float(np.max(np.abs(u_t), initial=0.0)) <= 1e-9 * scale:
                candidates.add(t)

    # least-eigenvalue sign changes of A(t) (boundary of the finite region)
    def lam(t: float) -> float:
        return combine(t, phi1, 1.0 - t, phi2).min_eigenvalue()

    scan = np.linspace(0.0, 1.0, 101)
    lam_vals = np.linalg.eigvalsh(_combo_matrices(phi1, phi2, scan))[:, 0]
    for i in range(len(scan) - 1):
        if (lam_vals[i] < 0.0) != (lam_vals[i + 1] < 0.0):
            a, b = float(scan[i]), float(scan[i + 1])
            # a only moves to points of its own sign, so one lam(a) serves.
            a_negative = lam(a) < 0.0
            for _ in range(60):
                mid = 0.5 * (a + b)
                if a_negative == (lam(mid) < 0.0):
                    a = mid
                else:
                    b = mid
            candidates.add(a)
            candidates.add(b)

    # coarse scan for a finite bracket, then golden section
    tgrid = np.linspace(0.0, 1.0, 1001)
    scan_vals = _combo_min_many(phi1, phi2, tgrid, global_tol())
    best_idx = int(np.argmax(scan_vals))
    if np.isfinite(scan_vals[best_idx]):
        step = float(tgrid[1] - tgrid[0])
        a = max(0.0, float(tgrid[best_idx]) - step)
        b = min(1.0, float(tgrid[best_idx]) + step)
        while b - a > t_tol:
            c = b - INV_PHI * (b - a)
            d = a + INV_PHI * (b - a)
            if m(c) >= m(d):
                b = d
            else:
                a = c
        candidates.add(0.5 * (a + b))
        candidates.add(float(tgrid[best_idx]))

    best_t, best_val = None, -INF
    for t in sorted(candidates):
        val = m(t)
        if val > best_val:
            best_t, best_val = t, val
    if best_t is None or best_val < alpha - value_tol:
        return None
    return IntersectionWitness(best_t, alpha, best_val)


# ---------------------------------------------------------------------------
# Value function


def value_function(ctx: LagrangianContext, y) -> float:
    """``V(y) = inf_x f(x) + g(Lx + y)`` — V(0) is the primal value (and is
    computed by the same code path, so they agree exactly)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (ctx.instance.L.out_dim,):
        raise InvariantViolation("perturbation dimension mismatch")
    return _composite_min(ctx.instance, y).value


@dataclass(frozen=True)
class ValueFunctionProbe:
    """Sampling plan for the lsc test: strictly decreasing radii, at least 8
    samples per radius (uniform sphere directions plus axis points), and the
    eps used in ``V(y) > V(0) - eps``."""

    radius_ladder: tuple[float, ...] = (1.0, 0.1, 0.01, 1e-3, 1e-4)
    samples_per_radius: int = 32
    eps: float = 1e-3

    def __post_init__(self) -> None:
        if len(self.radius_ladder) == 0:
            raise InvariantViolation("radius ladder must be nonempty")
        if min(self.radius_ladder) <= 0.0:
            raise InvariantViolation("radii must be positive")
        if any(
            self.radius_ladder[i + 1] >= self.radius_ladder[i]
            for i in range(len(self.radius_ladder) - 1)
        ):
            raise InvariantViolation("radii must be strictly decreasing")
        if self.samples_per_radius < 8:
            raise InvariantViolation("need at least 8 samples per radius")
        if self.eps <= 0.0:
            raise InvariantViolation("probe eps must be positive")


def lsc_probe_at_zero(
    ctx: LagrangianContext, probe: ValueFunctionProbe | None = None
) -> bool:
    """Sampled lower-semicontinuity of V at 0.

    Lower semicontinuity only asks for *some* neighborhood of 0 on which
    ``V(y) > V(0) - eps``, so the ladder walks shrinking radii to exhibit the
    limit and the verdict comes from the smallest one: true iff every sample
    there (uniform sphere directions plus axis points) clears the bound.  A
    violation that persists down to the smallest radius is a genuine drop at
    0; violations only at large radii are ordinary far-field decrease."""
    probe = ValueFunctionProbe() if probe is None else probe
    v0 = value_function(ctx, np.zeros(ctx.instance.L.out_dim))
    if not np.isfinite(v0):
        raise InvariantViolation(f"V(0) = {v0}; the probe needs a finite value")
    m = ctx.instance.L.out_dim
    rng = np.random.default_rng(0)
    ok_at_radius = True
    for r in probe.radius_ladder:
        dirs = rng.normal(size=(probe.samples_per_radius, m))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs = dirs / norms
        axes = np.concatenate([np.eye(m), -np.eye(m)], axis=0)
        ok_at_radius = all(
            value_function(ctx, r * d) > v0 - probe.eps
            for d in np.concatenate([dirs, axes], axis=0)
        )
    return ok_at_radius


# ---------------------------------------------------------------------------
# Support-point zero-gap test


@dataclass(frozen=True)
class SupportPointCheck:
    holds: bool
    conditions: dict[str, bool]
    details: dict[str, float]


def support_point_zero_gap_check(
    ctx: LagrangianContext,
    psi: GeneralizedQuadratic,
    x0,
    alpha: float,
    tol: float | None = None,
) -> SupportPointCheck:
    """Zero-gap sufficient conditions built on a support member and a point.

    (support) psi <= g everywhere; (level) alpha <= inf_x f + psi o L;
    (sandwich) f(x0) <= alpha <= psi(L x0); (point) either
    ``sup over members of [psi'(L x0) - g*(psi')] <= 0`` or the variant
    ``g(L x0) <= 0``.  All four certify sup-inf == inf-sup."""
    tol = global_tol() if tol is None else tol
    inst = ctx.instance
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    Lx0 = inst.L.apply(x0)
    conditions: dict[str, bool] = {}
    details: dict[str, float] = {}

    # (support): min (g - psi) >= 0
    if inst.g.is_quadratic and inst.g.domain_box is None:
        low, _ = minimize_quadratic(combine(1.0, inst.g.quad, -1.0, psi))
    else:
        Y = inst.y_search.box.mesh(inst.y_search.points_per_axis)
        gv = inst.g.values(Y)
        ok = np.isfinite(gv)
        low = float(np.min(gv[ok] - np.asarray(psi(Y[ok])))) if np.any(ok) else INF
    conditions["psi_supports_g"] = low >= -tol
    details["support_slack"] = low

    # (level): alpha <= inf_x f + psi o L
    if inst.f.is_quadratic and inst.f.domain_box is None:
        inf_fpsi, _ = minimize_quadratic(inst.f.quad + pullback(psi, inst.L))
    else:
        X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
        fv = inst.f.values(X)
        ok = np.isfinite(fv)
        pb = pullback(psi, inst.L)
        inf_fpsi = float(np.min(fv[ok] + np.asarray(pb(X[ok])))) if np.any(ok) else INF
    conditions["alpha_below_inf"] = alpha <= inf_fpsi + tol
    details["inf_f_plus_psi"] = inf_fpsi

    # (sandwich): f(x0) <= alpha <= psi(L x0)
    fx0 = inst.f.value(x0)
    psi_at = float(psi(Lx0))
    conditions["sandwich"] = fx0 <= alpha + tol and alpha <= psi_at + tol
    details["f_at_x0"] = fx0
    details["psi_at_Lx0"] = psi_at

    # (point): L x0 supported by g* over the member grid, or g(L x0) <= 0
    sup_a = biconjugate_at(inst.g, Lx0, inst.psi_search, table=ctx.gstar_table())
    g_at = inst.g.value(Lx0)
    point_in_a = sup_a <= tol
    g_nonpos = g_at <= tol
    conditions["point_in_support_set"] = point_in_a
    conditions["g_nonpositive_at_point"] = g_nonpos
    details["sup_member_minus_gstar"] = sup_a
    details["g_at_Lx0"] = g_at

    holds = (
        conditions["psi_supports_g"]
        and conditions["alpha_below_inf"]
        and conditions["sandwich"]
        and (point_in_a or g_nonpos)
    )
    return SupportPointCheck(holds, conditions, details)
