"""Lagrangian values, minimax gap probes, and the value function.

The Lagrangian couples a point with an output-class member:
``L(x, psi) = f(x) + psi(Lx) - g*(psi)``.  Its sup-inf (LD) equals the
conjugate dual over the same member grid; its inf-sup (LP) is the primal with
g replaced by its class biconjugate.  The gap between them is probed three
ways: the intersection property of member pairs, lower semicontinuity of the
value function at 0, and a support-point test.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, values_agree
from .conjugates import (
    _biconjugate_argmax,
    _biconjugate_lower_bound,
    _never_one_row,
    _quadratic_sup_many,
    biconjugate_many,
    is_phi_convex_at,
    minimize_quadratic,
)
from .duality import (
    ConditionCheck,
    DualResult,
    PrimalResult,
    ProblemInstance,
    _attains_primal,
    _composite_min,
    _member_gstar,
    _member_inf,
    _require_psi,
    composite_inf_table,
    dcp_value,
    g_conjugate_table,
    primal_value,
)
from .errors import InvariantViolation
from .objectives import INF
from .quadratics import GeneralizedQuadratic, _checked_symmetric, combine

# lp_value evaluates g** exactly at every 32nd feasible mesh point first: 7,
# 53 and 42 points of the 1-, 2- and 3-D fuzz meshes.  Every 16th was slower
# there and on the catalog, every 64th slower on four catalog instances.
_LP_SAMPLE_STRIDE = 32
# Relative slack on the prune test, far above the few ulps by which a lower
# bound computed in a different batch can exceed the exact value.
_LP_PRUNE_RTOL = 1e-12
# The lsc probe: the radius of its V(y) samples, the number of random
# directions among them, and the eps of ``V(y) > V(0) - eps``.
_LSC_RADIUS = 1e-4
_LSC_DIRECTIONS = 32
_LSC_EPS = 1e-3


@dataclass
class LagrangianContext:
    """An instance plus memoized sweep tables.

    The tables are computed once and shared by every value defined on the
    same member grid, which keeps sup-inf <= inf-sup a finite minimax fact
    rather than a numerical accident.  The lock makes each table write-once.
    """

    instance: ProblemInstance
    _gstar_table: np.ndarray | None = field(default=None, init=False, repr=False)
    _inf_table: np.ndarray | None = field(default=None, init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

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


def lagrangian_value(
    ctx: LagrangianContext, x, psi: GeneralizedQuadratic
) -> float:
    """``f(x) + psi(Lx) - g*(psi)``, with g*(psi) as ``g_conjugate_table``
    has it; +inf outside dom f, -inf when g*(psi) is not finite (such
    members are excluded from the dual sup)."""
    inst = ctx.instance
    _require_psi(inst, psi)
    fx = inst.f.value(x)
    if fx == INF:
        return INF
    gs = _member_gstar(inst, psi)
    if not np.isfinite(gs):
        return -INF
    return fx + float(psi(inst.L.apply(np.asarray(x, dtype=float)))) - gs


def ld_value(ctx: LagrangianContext) -> DualResult:
    """``sup over members of inf_x L(x, psi)`` — identical, number for
    number, to the conjugate dual sweep on the same grid."""
    return dcp_value(
        ctx.instance, inf_table=ctx.inf_table(), gstar_table=ctx.gstar_table()
    )


def lp_value(ctx: LagrangianContext) -> PrimalResult:
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
    X = inst.x_search.mesh()
    fv = inst.f_on_mesh
    LX = inst.L.apply(X)
    total = np.full(len(X), INF)
    feasible = np.flatnonzero(fv != INF)
    sample = feasible[::_LP_SAMPLE_STRIDE]
    rest = np.delete(feasible, np.s_[::_LP_SAMPLE_STRIDE])
    gdd, winner = _biconjugate_argmax(LX[sample], search, table)
    total[sample] = fv[sample] + gdd
    incumbent = np.min(total[sample], initial=INF)
    if np.isfinite(incumbent) and len(rest):
        lower, scale = _biconjugate_lower_bound(
            LX[rest], np.flatnonzero(np.bincount(winner[winner >= 0])), search, table)
        slack = _LP_PRUNE_RTOL * (np.abs(fv[rest]) + scale + abs(incumbent))
        rest = rest[~(fv[rest] + lower > incumbent + slack)]
    total[rest] = fv[rest] + biconjugate_many(inst.g, LX[rest], search, table)
    idx = int(np.argmin(total))
    value = float(total[idx])
    flags: tuple[str, ...] = ("grid_truncated",)
    if value == INF:
        return PrimalResult(INF, None, "grid", flags + ("infeasible_window",))
    if value == -INF:
        flags = flags + ("biconjugate_minus_infinity",)
    return PrimalResult(value, X[idx].copy(), "grid", flags)


def convexification_preserves_value(ctx: LagrangianContext) -> bool:
    """Whether replacing g with its class biconjugate keeps the primal value:
    ``inf f + g**(L.) == inf f + g(L.)`` within ``VALUE_TOL``."""
    return values_agree(lp_value(ctx).value, primal_value(ctx.instance).value)


def psi_convexity_at_optimum(ctx: LagrangianContext, x0) -> bool:
    """Whether g agrees with its class biconjugate at L x0, where x0 must
    attain the primal value (within ``VALUE_TOL``) — raises otherwise."""
    inst = ctx.instance
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not _attains_primal(inst, x0)[2]:
        raise InvariantViolation("x0 does not attain the primal value")
    return is_phi_convex_at(
        inst.g, inst.L.apply(x0), inst.psi_search, table=ctx.gstar_table()
    )


# ---------------------------------------------------------------------------
# Intersection property


@dataclass(frozen=True)
class IntersectionWitness:
    """t0 in [0,1] with ``t0*phi1 + (1-t0)*phi2 >= alpha`` everywhere,
    within ``TOL``: the rule ``intersection_property`` accepts a level by."""

    t0: float
    alpha: float
    min_value: float

    @property
    def holds(self) -> bool:
        return self.min_value >= self.alpha - TOL


def _combo_min_many(
    phi1: GeneralizedQuadratic, phi2: GeneralizedQuadratic, ts: np.ndarray
) -> np.ndarray:
    """``min_z [t*phi1 + (1-t)*phi2](z)`` at every t, with one batched
    eigendecomposition: ``min q = -sup(-q)``, and ``sup(-q)`` is +inf along
    an ascent direction or a kernel direction with a nonzero slope."""
    s = ts[:, None]
    v = -(s * phi1.u + (1.0 - s) * phi2.u)
    k = -(ts * phi1.c + (1.0 - ts) * phi2.c)
    D = -_checked_symmetric(s[:, :, None] * phi1.A + (1.0 - s[:, :, None]) * phi2.A)
    return -_quadratic_sup_many(D, v[:, None, :], k)[:, 0]


def _curvature(phi: GeneralizedQuadratic) -> float:
    """a of a class member ``a*||z||^2 + u.z + c``; raises unless A = a*I."""
    a = float(phi.A[0, 0])
    if not np.array_equal(phi.A, a * np.eye(phi.dim)):
        raise InvariantViolation("intersection_property takes class members (A = a*I)")
    return a


def intersection_property(
    phi1: GeneralizedQuadratic,
    phi2: GeneralizedQuadratic,
    alpha: float,
) -> IntersectionWitness | None:
    """Search for a convex combination of two class members globally above
    the level alpha.

    ``m(t) = min_z [t*phi1 + (1-t)*phi2](z)`` is concave on [0,1].  The
    curvature ``a(t) = a2 + t*d`` is affine, and where it is positive
    ``m = c(t) - |u(t)|^2 / (4 a(t))``.  With ``dc = c1 - c2``,
    ``du = u1 - u2``, ``E = 4 d dc - |du|^2`` and
    ``A0 = 4 dc a2^2 - 2 a2 (u2.du) + d |u2|^2``, ``m'(t) = 0`` reads
    ``d E t^2 + 2 a2 E t + A0 = 0``: for d = 0 a linear equation, else a
    quadratic whose root with ``a(t) > 0`` has ``a(t)^2 = a2^2 - d A0 / E``;
    E < 0 makes it a maximum.  m peaks there, at 0 or 1, or at the root of
    a(t), where m is finite only at that point or flat on one side of it.
    One batched call evaluates m at these at most four candidates.  Returns
    the first maximum (the smallest t0) when ``max m >= alpha - TOL``."""
    if phi1.dim != phi2.dim:
        raise InvariantViolation("dimension mismatch")
    if np.isnan(alpha):
        raise InvariantViolation("alpha must not be NaN")
    a1, a2 = _curvature(phi1), _curvature(phi2)
    # Members near the float range overflow to inf in the products below;
    # the candidates and their values stay right, so numpy stays quiet.
    with np.errstate(over="ignore"):
        d, dc, du = a1 - a2, phi1.c - phi2.c, phi1.u - phi2.u
        E = 4.0 * d * dc - float(du @ du)
        candidates = {0.0, 1.0}
        if d != 0.0:
            candidates.add(-a2 / d)
            A0 = 4.0 * dc * a2 * a2 - 2.0 * a2 * float(phi2.u @ du) + d * float(phi2.u @ phi2.u)
            if E < 0.0 and a2 * a2 - d * A0 / E >= 0.0:
                r = math.sqrt(a2 * a2 - d * A0 / E)
                # each form adds terms of one sign: no cancellation
                candidates.add(-A0 / E / (r + a2) if a2 > 0.0 else (r - a2) / d)
        elif E < 0.0:
            candidates.add((2.0 * a2 * dc - float(phi2.u @ du)) / float(du @ du))
        ts = np.array(sorted(t for t in candidates if 0.0 <= t <= 1.0))
        vals = _combo_min_many(phi1, phi2, ts)
    k = int(np.argmax(vals))  # the first maximum: the smallest t0
    if vals[k] == -INF or vals[k] < alpha - TOL:
        return None
    return IntersectionWitness(float(ts[k]), alpha, float(vals[k]))


# ---------------------------------------------------------------------------
# Value function


def value_function(ctx: LagrangianContext, y) -> float:
    """``V(y) = inf_x f(x) + g(Lx + y)``.  V(0) is the primal value, but not
    by the primal's code path: ``_composite_min`` at a given y shifts g's
    quadratic, or evaluates g at ``L X + y`` on a grid instance, where the
    primal reads the composite quadratic or ``g_on_mesh``.  The tests pin
    that both give the same bits on the catalog, fuzz and gridbox instances."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (ctx.instance.L.out_dim,):
        raise InvariantViolation("perturbation dimension mismatch")
    return _composite_min(ctx.instance, y).value


def _value_function_many(ctx: LagrangianContext, Y: np.ndarray) -> np.ndarray:
    """V at every row of Y.  On an exact instance f + g(L. + y) has one
    matrix for every y, so one ``_quadratic_sup_many`` call serves all rows
    (each row's constant added after it, as the kernel would add it).  On a
    grid instance each row is ``value_function``'s mesh minimum."""
    inst = ctx.instance
    if inst.is_exact:
        A, gq = inst.composite_quad().A, inst.g.quad
        U = inst.f.quad.u + (2.0 * (Y @ gq.A) + gq.u) @ inst.L.matrix
        C = inst.f.quad.c + gq(Y)
        # V = -sup(0 - q_y), the differences formed as minimize_quadratic forms them
        sup = _quadratic_sup_many((0.0 - A)[None], 0.0 - U, 0.0)[0]
        return -((0.0 - C) + sup)
    return np.array([_composite_min(inst, y).value for y in Y])


def lsc_probe_at_zero(ctx: LagrangianContext) -> bool:
    """Sampled lower-semicontinuity of V at 0.

    Lower semicontinuity only asks for *some* neighborhood of 0 on which
    ``V(y) > V(0) - eps``, so V is evaluated only at one small radius: true
    iff every sample there (uniform sphere directions plus axis points)
    clears the bound.  A violation there is a genuine drop at 0; one only at
    larger radii would be ordinary far-field decrease."""
    v0 = value_function(ctx, np.zeros(ctx.instance.L.out_dim))
    if not np.isfinite(v0):
        raise InvariantViolation(f"V(0) = {v0}; the probe needs a finite value")
    m = ctx.instance.L.out_dim
    # The fifth of five blocks of directions: the recorded lsc facts of the
    # catalog were taken on these directions, from an earlier probe that drew
    # one block per radius of the ladder 1, 0.1, ..., 1e-4.
    dirs = np.random.default_rng(0).normal(size=(5, _LSC_DIRECTIONS, m))[-1]
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs = dirs / norms
    axes = np.concatenate([np.eye(m), -np.eye(m)], axis=0)
    Y = _LSC_RADIUS * np.concatenate([dirs, axes], axis=0)
    return bool(np.all(_value_function_many(ctx, Y) > v0 - _LSC_EPS))


# ---------------------------------------------------------------------------
# Support-point zero-gap test


@dataclass(frozen=True)
class SupportPointScan:
    """``support_point_zero_gap_check`` at every candidate base point: one
    flag and one value per candidate under the same keys."""

    holds: np.ndarray
    conditions: dict[str, np.ndarray]
    details: dict[str, np.ndarray]

    def check(self, i: int) -> ConditionCheck:
        return ConditionCheck(
            bool(self.holds[i]), "support_point",
            {k: bool(v[i]) for k, v in self.conditions.items()},
            {k: float(v[i]) for k, v in self.details.items()},
        )


def support_point_scan(
    ctx: LagrangianContext,
    psi: GeneralizedQuadratic,
    X0,
    alpha: float,
) -> SupportPointScan:
    """Zero-gap sufficient conditions built on a support member and a point,
    for every row of X0 (candidate base points, shape (N, n)).

    (support) psi <= g everywhere; (level) alpha <= inf_x f + psi o L;
    (sandwich) f(x0) <= alpha <= psi(L x0); (point) either
    ``sup over members of [psi'(L x0) - g*(psi')] <= 0`` or the variant
    ``g(L x0) <= 0``.  All four certify sup-inf == inf-sup.  The first two
    depend on psi only and are computed once; the point conditions come
    from one batched evaluation over L X0."""
    inst = ctx.instance
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != inst.L.in_dim:
        raise InvariantViolation(f"base points shape {X0.shape} != (N, {inst.L.in_dim})")
    # A lone base point is evaluated as two rows, so that its BLAS products
    # (L.apply, X @ u, Xb @ slopes.T) round as in a longer batch; the x.A x
    # terms come from quadratic_form, which rounds alike at any batch size.
    n = len(X0)
    X0 = _never_one_row(X0)
    LX0 = inst.L.apply(X0)

    # (support): min (g - psi) >= 0
    if inst.g.exact is not None:
        low, _ = minimize_quadratic(combine(1.0, inst.g.exact, -1.0, psi))
    else:
        Y = inst.y_search.mesh()
        gv = inst.g.values(Y)
        ok = np.isfinite(gv)
        low = float(np.min(gv[ok] - psi(Y[ok]), initial=INF))

    # (level): alpha <= inf_x f + psi o L
    inf_fpsi = _member_inf(inst, psi)

    # (sandwich) and (point): L x0 supported by g* over the member grid, or
    # g(L x0) <= 0
    fx0, psi_at, g_at = inst.f.values(X0)[:n], psi(LX0)[:n], inst.g.values(LX0)[:n]
    sup_a = biconjugate_many(inst.g, LX0, inst.psi_search, ctx.gstar_table())[:n]
    conditions = {
        "psi_supports_g": np.full(n, low >= -TOL),
        "alpha_below_inf": np.full(n, alpha <= inf_fpsi + TOL),
        "sandwich": (fx0 <= alpha + TOL) & (alpha <= psi_at + TOL),
        "point_in_support_set": sup_a <= TOL,
        "g_nonpositive_at_point": g_at <= TOL,
    }
    details = {
        "support_slack": np.full(n, low),
        "inf_f_plus_psi": np.full(n, inf_fpsi),
        "f_at_x0": fx0,
        "psi_at_Lx0": psi_at,
        "sup_member_minus_gstar": sup_a,
        "g_at_Lx0": g_at,
    }
    holds = (
        conditions["psi_supports_g"]
        & conditions["alpha_below_inf"]
        & conditions["sandwich"]
        & (conditions["point_in_support_set"] | conditions["g_nonpositive_at_point"])
    )
    return SupportPointScan(holds, conditions, details)


def support_point_zero_gap_check(
    ctx: LagrangianContext,
    psi: GeneralizedQuadratic,
    x0,
    alpha: float,
) -> ConditionCheck:
    """``support_point_scan`` at the one base point x0."""
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    return support_point_scan(ctx, psi, x0, alpha).check(0)
