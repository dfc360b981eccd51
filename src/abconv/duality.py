"""Composite problems ``inf f(x) + g(Lx)`` and their conjugate-type duals.

The dual pairs a class member ``psi`` with the perturbation ``y -> g(Lx+y)``;
its objective is ``inf_x [f(x) + psi(Lx)] - g*(psi)`` and the dual value is
the supremum over a finite search grid of class members.  Weak duality holds
structurally because the primal/dual sweeps share their evaluation grids.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL, VALUE_TOL, values_agree
from .conjugates import (
    FamilySearchGrid,
    GridSpec,
    _quadratic_sup_many,
    _subdiff_holds,
    _subdiff_terms,
    conjugate_closed_form,
    conjugate_value,
    eps_subdiff_contains,
    family_conjugate_table,
    minimize_quadratic,
)
from .errors import InvariantViolation
from .objectives import INF, Objective
from .quadratics import (
    Family,
    GeneralizedQuadratic,
    LinearMap,
    _ByBytes,
    combine,
    pullback,
)


def _ext_add(a: float, b: float) -> float:
    """Extended-real sum; +inf dominates -inf (sup-side convention)."""
    if a == INF or b == INF:
        return INF
    if a == -INF or b == -INF:
        return -INF
    return a + b


# ---------------------------------------------------------------------------
# Problem instances


@dataclass(frozen=True)
class ProblemInstance:
    """Composite problem ``inf_x f(x) + g(Lx)`` with conjugation classes
    ``phi`` (on inputs) and ``psi`` (on outputs, the class that
    ``psi_search`` walks), plus search grids.

    ``f_on_mesh`` and ``g_on_mesh`` hold f and g o L on the x search mesh,
    evaluated on first use and shared by every sweep of the instance.  They
    are not fields: ``==``, ``repr``, serialization and
    ``dataclasses.replace`` never see them."""

    f: Objective
    g: Objective
    L: LinearMap
    phi: Family
    psi_search: FamilySearchGrid
    x_search: GridSpec
    y_search: GridSpec
    name: str = ""

    def __post_init__(self) -> None:
        n, m = self.L.in_dim, self.L.out_dim
        if self.f.dim != n:
            raise InvariantViolation("f dimension != L input dimension")
        if self.g.dim != m:
            raise InvariantViolation("g dimension != L output dimension")
        if self.phi.dim != n or self.psi.dim != m:
            raise InvariantViolation("class dimensions do not match the map")
        if self.x_search.box.dim != n or self.y_search.box.dim != m:
            raise InvariantViolation("search box dimension mismatch")
        if not self.is_exact and "infeasible_window" in _composite_min(self).flags:
            warnings.warn(
                "no feasible point found on the x search mesh: dom g may "
                "never meet L(dom f)",
                stacklevel=3,  # the caller of the generated __init__
            )

    @classmethod
    def build(
        cls,
        f: Objective,
        g: Objective,
        L: LinearMap,
        phi: Family,
        psi: Family,
        psi_search: FamilySearchGrid | None = None,
        x_search: GridSpec | None = None,
        y_search: GridSpec | None = None,
        name: str = "",
    ) -> "ProblemInstance":
        if psi_search is None:
            psi_search = FamilySearchGrid.default(psi)
        elif psi_search.family != psi:
            raise InvariantViolation("psi search grid walks another class than psi")
        if x_search is None:
            x_search = GridSpec.default(L.in_dim)
        if y_search is None:
            y_search = GridSpec.default(L.out_dim)
        return cls(f, g, L, phi, psi_search, x_search, y_search, name)

    @property
    def psi(self) -> Family:
        """The output class: the one ``psi_search`` walks."""
        return self.psi_search.family

    @cached_property
    def f_on_mesh(self) -> np.ndarray:
        """f at every x search mesh point (read-only)."""
        values = self.f.values(self.x_search.mesh())
        values.setflags(write=False)
        return values

    @cached_property
    def g_on_mesh(self) -> np.ndarray:
        """g at L x for every x search mesh point x (read-only)."""
        values = self.g.values(self.L.apply(self.x_search.mesh()))
        values.setflags(write=False)
        return values

    @property
    def is_exact(self) -> bool:
        """Closed-form engines apply to both parts (``Objective.exact``)."""
        return self.f.exact is not None and self.g.exact is not None

    def composite_quad(self) -> GeneralizedQuadratic:
        if not self.is_exact:
            raise InvariantViolation("composite quadratic needs exact parts")
        return self.f.quad + pullback(self.g.quad, self.L)

    def value_at(self, x) -> float:
        """``f(x) + g(Lx)`` at one point; +inf when either part is +inf."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return _ext_add(self.f.value(x), self.g.value(self.L.apply(x)))

    def composite_objective(self) -> Objective:
        """``x -> f(x) + g(Lx)`` as a single objective."""
        if self.is_exact:
            return Objective.quadratic(self.composite_quad())
        return Objective.from_callable(self.L.in_dim, self.value_at, domain_box=self.f.domain_box)


def coupling_value(
    phi: GeneralizedQuadratic,
    psi: GeneralizedQuadratic,
    L: LinearMap,
    x,
    y,
) -> float:
    """``phi(x) + psi(Lx + y) - psi(Lx)`` — the coupling between points and
    (member, perturbation) pairs; equals phi(x) at y = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Lx = L.apply(x)
    return float(phi(x)) + float(psi(Lx + y)) - float(psi(Lx))


# ---------------------------------------------------------------------------
# Primal


@dataclass(frozen=True, eq=False)
class PrimalResult(_ByBytes):
    value: float
    minimizer: np.ndarray | None
    engine: str
    flags: tuple[str, ...] = ()


def _composite_min(instance: ProblemInstance, y=None) -> PrimalResult:
    """Minimum of ``f(x) + g(Lx + y)`` (y defaults to 0).

    Exact when both parts are unconstrained quadratics; otherwise a fixed-mesh
    minimum over the x search box (an upper bound of the true infimum). The
    mesh is deliberately not refined so that every sweep sharing it stays
    comparable (see the dual sweeps)."""
    if instance.is_exact:
        if y is None:
            q = instance.composite_quad()
        else:
            q = instance.f.quad + pullback(instance.g.quad.shifted(y), instance.L)
        value, argmin = minimize_quadratic(q)
        flags = ("unbounded",) if value == -INF else ()
        return PrimalResult(value, argmin, "closed", flags)
    X = instance.x_search.mesh()
    if y is None:
        gv = instance.g_on_mesh
    else:
        gv = instance.g.values(instance.L.apply(X) + np.asarray(y, dtype=float))
    total = instance.f_on_mesh + gv
    idx = int(np.argmin(total))
    if total[idx] == INF:
        return PrimalResult(INF, None, "grid", ("infeasible_window",))
    return PrimalResult(float(total[idx]), X[idx].copy(), "grid", ("grid_truncated",))


def primal_value(instance: ProblemInstance) -> PrimalResult:
    """Value of ``inf_x f(x) + g(Lx)``."""
    return _composite_min(instance)


def _attains_primal(instance: ProblemInstance, x) -> tuple[float, float, bool]:
    """``f(x) + g(Lx)``, the primal value, and whether both are finite and
    within ``VALUE_TOL`` of each other."""
    value, primal = instance.value_at(x), primal_value(instance).value
    return value, primal, bool(np.isfinite(value)) and values_agree(value, primal)


# ---------------------------------------------------------------------------
# Dual sweep


def composite_inf_table(instance: ProblemInstance) -> np.ndarray:
    """``inf_x f(x) + psi(Lx)`` for every member of ``instance.psi_search``.

    Shape (len(curvatures), n_slopes); -inf marks unbounded members, and
    +inf every member when f has no feasible mesh point.  Exact
    (one batched eigendecomposition over the curvatures) for unconstrained
    quadratic f; otherwise a minimum over the x search mesh."""
    search = instance.psi_search
    slopes = search.slopes()
    M = instance.L.matrix
    q = instance.f.exact

    if q is not None:
        # q_v(x) = f(x) + beta*||Lx||^2 + (M^T v).x ; inf = -sup(-q_v)
        betas = np.asarray(search.curvatures)[:, None, None]
        D = -(q.A + betas * (M.T @ M))
        return -_quadratic_sup_many(D, -(slopes @ M + q.u), -q.c)

    fvals = instance.f_on_mesh
    ok = np.isfinite(fvals)
    fvals = fvals[ok]
    # L applied to the feasible rows only: a product over a different row
    # set can round differently.
    LX = instance.L.apply(instance.x_search.mesh()[ok])
    sq = np.sum(LX * LX, axis=1)
    lin = LX @ slopes.T
    return np.stack(
        [(fvals[:, None] + beta * sq[:, None] + lin).min(axis=0, initial=INF)
         for beta in search.curvatures]
    )


def g_conjugate_table(instance: ProblemInstance) -> np.ndarray:
    """``g*(psi)`` over ``instance.psi_search``; +inf marks infeasible members.

    When g needs the grid engine, the candidate maximizers include the image
    of the x search mesh under L, so the table is consistent with the primal
    sweep (keeps the dual below the primal by construction)."""
    search = instance.psi_search
    base = family_conjugate_table(instance.g, search, grid=instance.y_search)
    if instance.g.exact is not None:
        return base
    Y = instance.L.apply(instance.x_search.mesh())
    gvals = instance.g_on_mesh
    ok = np.isfinite(gvals)
    Y, gvals = Y[ok], gvals[ok]
    sq = np.sum(Y * Y, axis=1)
    lin = Y @ search.slopes().T
    for i, beta in enumerate(search.curvatures):
        extra = np.max(beta * sq[:, None] + lin - gvals[:, None], axis=0, initial=-INF)
        base[i] = np.maximum(base[i], extra)
    return base


def _member_inf(instance: ProblemInstance, psi: GeneralizedQuadratic) -> float:
    """``inf_x f(x) + psi(Lx)`` of one member as ``composite_inf_table``
    defines it: closed form on an exact f, else the minimum over the
    feasible x mesh points (equal to the table entry within rounding)."""
    pb = pullback(psi, instance.L)
    if instance.f.exact is not None:
        return minimize_quadratic(instance.f.exact + pb)[0]
    fv = instance.f_on_mesh
    ok = np.isfinite(fv)
    return float(np.min(fv[ok] + pb(instance.x_search.mesh()[ok]), initial=INF))


def _member_gstar(instance: ProblemInstance, psi: GeneralizedQuadratic) -> float:
    """``g*(psi)`` of one member as ``g_conjugate_table`` defines it, the one
    g* of every one-member reader: on a grid g the y-mesh search, raised by
    the image of the x mesh under L (the table entry within rounding)."""
    gstar = conjugate_value(instance.g, psi, grid=instance.y_search).value
    if instance.g.exact is not None:
        return gstar
    gvals = instance.g_on_mesh
    ok = np.isfinite(gvals)
    Y = instance.L.apply(instance.x_search.mesh())[ok]
    return max(gstar, float(np.max(psi(Y) - gvals[ok], initial=-INF)))


@dataclass(frozen=True)
class DualResult:
    value: float
    attaining: GeneralizedQuadratic | None
    engine: str
    flags: tuple[str, ...] = ()
    excluded_infeasible: int = 0
    excluded_unbounded: int = 0


def dcp_value(
    instance: ProblemInstance,
    inf_table: np.ndarray | None = None,
    gstar_table: np.ndarray | None = None,
) -> DualResult:
    """Dual value ``sup over psi of inf_x [f + psi o L] - g*(psi)``.

    Members whose ``g*(psi)`` is not finite (dual-infeasible at +inf, or a
    grid engine's -inf) or whose inner infimum is unbounded contribute -inf
    and are excluded from attainment, as every sweep excludes them. Ties
    keep the first grid index (``FamilySearchGrid.member_at``)."""
    if inf_table is None:
        inf_table = composite_inf_table(instance)
    if gstar_table is None:
        gstar_table = g_conjugate_table(instance)
    with np.errstate(invalid="ignore"):
        obj = inf_table - gstar_table
    infeasible = ~np.isfinite(gstar_table)
    unbounded = inf_table == -INF
    obj[infeasible | unbounded] = -INF
    flat = int(np.argmax(obj))
    value = float(obj.flat[flat])
    excluded = value == -INF
    return DualResult(
        value, None if excluded else instance.psi_search.member_at(flat),
        "closed" if instance.is_exact else "grid",
        ("all_members_excluded",) if excluded else (),
        int(np.sum(infeasible)), int(np.sum(unbounded)),
    )


def _require_psi(instance: ProblemInstance, psi: GeneralizedQuadratic) -> None:
    if not instance.psi.contains(psi):
        raise InvariantViolation("psi is not a member of the output class")


def perturbation_conjugate_zero(
    instance: ProblemInstance, psi: GeneralizedQuadratic
) -> float:
    """Conjugate of the perturbed value function at (0, psi):
    ``g*(psi) - inf_x [f(x) + psi(Lx)]``, the negated dual objective at psi
    with both terms as the dual sweep defines them (``_member_gstar``,
    ``_member_inf``).  +inf at a member the sweep excludes: one whose g* is
    not finite or whose infimum is -inf."""
    _require_psi(instance, psi)
    gstar, low = _member_gstar(instance, psi), _member_inf(instance, psi)
    return gstar - low if np.isfinite(gstar) and low != -INF else INF


def _f_minus(f: Objective, phi: GeneralizedQuadratic) -> Objective:
    """The objective ``f - phi``, on f's domain box."""
    if f.exact is not None:
        return Objective.quadratic(f.exact - phi)
    return Objective.from_callable(
        f.dim, lambda x: _ext_add(f.value(x), -float(phi(np.asarray(x, dtype=float)))),
        domain_box=f.domain_box,
    )


def _weak_duality(primal: float, dual: float) -> tuple[float, bool]:
    """The gap ``primal - dual`` (+inf when the dual is infinite) and whether
    the dual stays below the primal: the gap is at least ``-VALUE_TOL``."""
    gap = INF if abs(dual) == INF else primal - dual
    return gap, bool(gap >= -VALUE_TOL)


def weak_duality_check(
    instance: ProblemInstance,
    phi: GeneralizedQuadratic | None = None,
) -> bool:
    """``(f + g o L)*(phi) <= min over psi of [(f + psi o L)*(phi) + g*(psi)]``
    at one member phi (0 by default) — the conjugate form of weak duality.

    Its two sides are the negated primal and dual values of the instance
    with f replaced by ``f - phi``, so it reads both off the shared mesh
    sweeps and at phi = 0 equals the report's ``weak_duality_ok``."""
    if phi is not None:
        instance = dataclasses.replace(instance, f=_f_minus(instance.f, phi))
    return _weak_duality(primal_value(instance).value, dcp_value(instance).value)[1]


def composite_condition_check(
    instance: ProblemInstance,
    phi: GeneralizedQuadratic,
    psi: GeneralizedQuadratic,
    variant: str = "difference",
) -> bool:
    """Whether ``phi + psi o L`` (variant "sum") or ``phi - psi o L``
    (variant "difference") belongs to the input class."""
    sign = {"sum": 1.0, "difference": -1.0}.get(variant)
    if sign is None:
        raise InvariantViolation(f"unknown variant {variant!r}")
    return instance.phi.contains(combine(1.0, phi, sign, pullback(psi, instance.L)))


# ---------------------------------------------------------------------------
# Zero-gap certificates


@dataclass(frozen=True)
class ConditionCheck:
    """A verdict on named conditions: a certificate check (kind "thm42" or
    "thm43"), a decomposition condition ("a" to "d") or a support-point
    check ("support_point")."""

    holds: bool
    kind: str
    conditions: dict[str, bool]
    details: dict[str, float | str]


@dataclass(frozen=True, eq=False)
class GapCertificate(_ByBytes):
    """Witness of a (near-)zero duality gap at accuracy eps.

    kind "thm42": psi alone must be an eps-subgradient of g at Lx whose dual
    objective reaches within eps of the primal bound.  kind "thm43": a pair
    (phi, psi) of eps-subgradients whose sum phi + psi o L is globally >= -eps
    and <= eps at x."""

    kind: str
    eps: float
    x: np.ndarray
    psi: GeneralizedQuadratic
    phi: GeneralizedQuadratic | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("thm42", "thm43"):
            raise InvariantViolation(f"unknown certificate kind {self.kind!r}")
        if not 0 <= self.eps < INF:
            raise InvariantViolation("certificate eps must be finite and nonnegative")
        if self.kind == "thm43" and self.phi is None:
            raise InvariantViolation("kind thm43 needs phi")
        if self.kind == "thm42" and self.phi is not None:
            raise InvariantViolation("kind thm42 takes no phi")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(-1))


def verify_gap_certificate(instance: ProblemInstance, cert: GapCertificate) -> ConditionCheck:
    """Check every condition of a gap certificate numerically."""
    return _check_terms(_certificate_terms(instance, cert), cert.eps)


def _certificate_terms(instance: ProblemInstance, cert: GapCertificate) -> dict:
    """Every value of ``verify_gap_certificate`` that does not depend on eps;
    g*(psi) is ``_member_gstar`` and thm42's (f + psi o L)*(0) ``-_member_inf``."""
    x = cert.x
    fx = instance.f.value(x)
    if fx == INF:
        raise InvariantViolation("certificate point is outside dom f")
    Lx = instance.L.apply(x)
    gLx = instance.g.value(Lx)
    if gLx == INF:
        raise InvariantViolation(f"certificate point maps outside dom g: Lx = {Lx.tolist()}")
    psi_terms = (gLx, _member_gstar(instance, cert.psi), float(cert.psi(Lx)))
    terms = {"kind": cert.kind, "psi_in_family": instance.psi.contains(cert.psi),
             "psi_subgradient": psi_terms}
    if cert.kind == "thm42":
        terms["conjugate_at_zero"] = -_member_inf(instance, cert.psi)
        terms["slack"] = -fx - psi_terms[2]  # -f(x) - psi(Lx)
    else:
        combo = combine(1.0, cert.phi, 1.0, pullback(cert.psi, instance.L))
        terms.update(
            phi_in_family=instance.phi.contains(cert.phi),
            phi_subgradient=_subdiff_terms(instance.f, cert.phi, x, grid=instance.x_search),
            sum_min=minimize_quadratic(combo)[0], sum_at_x=float(combo(x)),
        )
    return terms


def _check_terms(terms: dict, eps: float) -> ConditionCheck:
    """The conditions and details of a certificate at one eps."""
    if eps < 0:
        raise InvariantViolation("certificate eps must be nonnegative")
    conditions = {"psi_in_family": terms["psi_in_family"],
                  "psi_subgradient": _subdiff_holds(terms["psi_subgradient"], eps)}
    if terms["kind"] == "thm42":
        sup0, bound = terms["conjugate_at_zero"], terms["slack"] + eps
        conditions["conjugate_bound"] = sup0 <= bound + TOL
        details = {"conjugate_at_zero": sup0, "bound": bound}
    else:
        low, at_x = terms["sum_min"], terms["sum_at_x"]
        conditions["phi_in_family"] = terms["phi_in_family"]
        conditions["phi_subgradient"] = _subdiff_holds(terms["phi_subgradient"], eps)
        conditions["sum_lower_bound"] = low >= -eps - TOL
        conditions["sum_small_at_x"] = at_x <= eps + TOL
        details = {"sum_min": low, "sum_at_x": at_x}
    return ConditionCheck(all(conditions.values()), terms["kind"], conditions, details)


def build_tangent_certificate(
    instance: ProblemInstance,
    x,
    eps: float,
    kind: str = "thm43",
) -> GapCertificate | None:
    """Construct a certificate from exact tangency when the data allows it.

    psi is the class member tangent to g at Lx (curvature at most the least
    eigenvalue of g's matrix, slope matching the gradient); for kind thm43
    the partner is phi = -(psi o L), which must itself belong to the input
    class. Returns None when no admissible tangent curvature exists or the
    partner falls outside the class."""
    if instance.g.exact is None:
        return None
    x = np.asarray(x, dtype=float).reshape(-1)
    psi = instance.psi.tangent(instance.g.exact, instance.L.apply(x))
    if psi is None:
        return None
    if kind == "thm42":
        return GapCertificate("thm42", eps, x, psi)
    phi = -pullback(psi, instance.L)
    if not instance.phi.contains(phi):
        return None
    return GapCertificate("thm43", eps, x, psi, phi)


def _tangent_ladder(
    instance: ProblemInstance, x, eps_ladder
) -> tuple[GapCertificate | None, list[ConditionCheck | None]]:
    """The tangent certificate at x (thm43, else thm42) and its check at each
    eps of the ladder (None without a certificate). Which kind exists never
    depends on eps, so the certificate is built once, with an eps of 0.0 that
    no check reads, and evaluated once."""
    cert = build_tangent_certificate(instance, x, 0.0)
    if cert is None:
        cert = build_tangent_certificate(instance, x, 0.0, kind="thm42")
    if cert is None:
        return None, [None] * len(eps_ladder)
    terms = _certificate_terms(instance, cert)
    return cert, [_check_terms(terms, eps) for eps in eps_ladder]


@dataclass(frozen=True)
class OptimalityCheck:
    holds: bool
    value_at_x: float
    primal: float
    ladder: tuple[tuple[float, bool], ...]


def verify_optimality_at(
    instance: ProblemInstance,
    x,
    eps_ladder: tuple[float, ...] = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
    certs: tuple[GapCertificate, ...] | None = None,
) -> OptimalityCheck:
    """Zero-gap optimality of a fixed point via a ladder of certificates.

    For each eps in the ladder a certificate at the *same* x must verify
    (given ones are used as-is; otherwise tangent construction is tried),
    and f(x) + g(Lx) must match the primal value within ``VALUE_TOL``.
    The tangent certificate is evaluated once and compared at every eps.
    An empty ladder (no eps, or no given certificate) checks nothing and
    is rejected, and so is an eps that is negative, NaN or infinite."""
    if len(eps_ladder if certs is None else certs) == 0:
        raise InvariantViolation("an empty certificate ladder certifies nothing")
    if not all(0 <= eps < INF for eps in eps_ladder):
        raise InvariantViolation("ladder eps must be finite and nonnegative")
    x = np.asarray(x, dtype=float).reshape(-1)
    value, primal, attains = _attains_primal(instance, x)
    ladder: list[tuple[float, bool]] = []
    if certs is not None:
        for cert in certs:
            if np.max(np.abs(cert.x - x)) > VALUE_TOL:
                raise InvariantViolation("ladder certificates must share the point x")
            ladder.append((cert.eps, verify_gap_certificate(instance, cert).holds))
    else:
        _, checks = _tangent_ladder(instance, x, eps_ladder)
        ladder = [(eps, c is not None and c.holds) for eps, c in zip(eps_ladder, checks)]
    holds = attains and all(ok for _, ok in ladder)
    return OptimalityCheck(holds, value, primal, tuple(ladder))


# ---------------------------------------------------------------------------
# Epigraphs of conjugates and their decomposition


@dataclass(frozen=True)
class EpiPoint:
    """A pair (member, level) tested against the epigraph of a conjugate."""

    phi: GeneralizedQuadratic
    r: float


def _target_objective(instance: ProblemInstance, target: str) -> tuple[Objective, Family]:
    if target == "f":
        return instance.f, instance.phi
    if target == "g":
        return instance.g, instance.psi
    if target == "g_of_L":
        g, L = instance.g, instance.L
        if g.exact is not None:
            return Objective.quadratic(pullback(g.exact, L)), instance.phi
        return (
            Objective.from_callable(L.in_dim, lambda x: g.value(L.apply(x))),
            instance.phi,
        )
    if target == "composite":
        return instance.composite_objective(), instance.phi
    raise InvariantViolation(f"unknown epigraph target {target!r}")


def epi_contains(
    instance: ProblemInstance,
    target: str,
    point: EpiPoint,
    tol: float = TOL,
) -> bool:
    """Whether ``point.r >= (target function)*(point.phi)``.

    target is one of "f", "g", "g_of_L", "composite"; the member must belong
    to the matching class."""
    obj, family = _target_objective(instance, target)
    if not family.contains(point.phi):
        raise InvariantViolation("epigraph point member is outside the class")
    if target == "g":
        return _member_gstar(instance, point.phi) <= point.r + tol
    return conjugate_value(obj, point.phi, grid=instance.x_search).value <= point.r + tol


@dataclass(frozen=True)
class Decomposition:
    """(phi, r) = (phi1 + psi o L, c_phi + c_psi) with both pairs in their
    conjugate epigraphs."""

    phi1: GeneralizedQuadratic
    c_phi: float
    psi: GeneralizedQuadratic
    c_psi: float


def epi_decompose(
    instance: ProblemInstance,
    point: EpiPoint,
) -> Decomposition | None:
    """Split a composite-epigraph pair into input-class and output-class pairs.

    Sweeps the psi search grid in increasing parameter norm (so the zero
    member is tried first), keeps candidates whose difference phi - psi o L
    stays in the input class, gives psi its minimal level g*(psi), and accepts
    when f*(phi - psi o L) fits under the remaining level."""
    if not epi_contains(instance, "composite", point, tol=VALUE_TOL):
        raise InvariantViolation("point is not in the composite conjugate epigraph")
    search = instance.psi_search
    slopes = search.slopes()
    betas = np.asarray(search.curvatures)[:, None]
    norms = np.sqrt(betas * betas + np.sum(slopes * slopes, axis=1))
    gstar = g_conjugate_table(instance).ravel()
    for k in np.argsort(norms.ravel(), kind="stable"):  # ties keep table order
        c_psi = float(gstar[k])
        if not np.isfinite(c_psi):
            continue
        psi = search.member_at(k)
        phi1 = combine(1.0, point.phi, -1.0, pullback(psi, instance.L))
        if not instance.phi.contains(phi1):
            continue
        c_phi = point.r - c_psi
        fstar = conjugate_value(instance.f, phi1, grid=instance.x_search).value
        if fstar <= c_phi + TOL:
            return Decomposition(phi1, c_phi, psi, c_psi)
    return None


def _nonneg_quadratic_minorant(
    family: Family, h: GeneralizedQuadratic
) -> GeneralizedQuadratic | None:
    """A class member phi1 <= h (exact construction), or None.

    Uses curvature alpha <= lambda_min(A_h), the same slope as h, and h's
    constant (dropped when the class carries no constants, which then
    requires c_h >= 0)."""
    alpha = family.curvature.largest_at_most(h.min_eigenvalue())
    if alpha is None:
        return None
    c = h.c
    if not family.includes_constants:
        if h.c < -TOL:
            return None
        c = 0.0
    return GeneralizedQuadratic.iso(h.dim, alpha, h.u, min(c, h.c))


# Condition (d)'s witness: phi_eps is an eps-subgradient of g o L at x for
# this eps, and the strict-gap inequality adds this margin to its left side.
_D_SUBGRADIENT_EPS = 1e-3
_D_GAP_MARGIN = 1e-3


def decomposition_condition_check(
    instance: ProblemInstance,
    which: str,
    phi: GeneralizedQuadratic | None = None,
    r: float | None = None,
    psi: GeneralizedQuadratic | None = None,
    x=None,
    phi_eps: GeneralizedQuadratic | None = None,
) -> ConditionCheck:
    """Sufficient conditions under which composite epigraph pairs decompose.

    which = "a": every pair (phi, r) in the epigraph of (g o L)* admits a psi
    with phi <= psi o L and g*(psi) <= r — checked for the given pair by
    searching the psi grid.
    which = "b": some psi has g*(psi) <= 0 and g o L <= psi o L — checked for
    the given psi (g* from ``_member_gstar``) or by a search of the g* table.
    which = "c": for the given pair and psi, both phi - psi o L and psi o L
    admit class minorants — checked by exact construction.
    which = "d": the input class is closed under differences, and the given
    witness (psi, x, phi_eps) satisfies the eps-subgradient and
    strict-gap inequalities.  A given psi outside the output class, or for
    (c) a phi outside the input class, raises ``InvariantViolation``."""
    conditions: dict[str, bool] = {}
    details: dict[str, float | str] = {}
    search = instance.psi_search

    if which == "a":
        if phi is None or r is None:
            raise InvariantViolation("condition (a) needs the pair (phi, r)")
        if not epi_contains(instance, "g_of_L", EpiPoint(phi, r), tol=VALUE_TOL):
            raise InvariantViolation("(phi, r) is not in the epigraph of (g o L)*")
        gstar = g_conjugate_table(instance).ravel()
        best_miss = INF
        for k in np.flatnonzero(np.isfinite(gstar) & (gstar <= r + TOL)):
            member = search.member_at(k)
            low, _ = minimize_quadratic(combine(1.0, pullback(member, instance.L), -1.0, phi))
            if low >= -TOL:
                return _psi_found(which, member)
            best_miss = min(best_miss, -low)
        return ConditionCheck(False, which, {"majorizing_psi_found": False},
                              {"smallest_violation": best_miss})

    if which == "b":
        if psi is not None:
            _require_psi(instance, psi)
            gs = _member_gstar(instance, psi)
            admissible = -INF < gs <= TOL  # a g* that is not finite excludes psi
            diff = _g_of_l_gap(instance, psi) if admissible else -INF
            conditions = {"gstar_nonpositive": admissible, "majorizes_g_of_L": diff >= -TOL}
            details = {"gstar": gs, "min_psi_oL_minus_g_oL": diff}
            return ConditionCheck(all(conditions.values()), which, conditions, details)
        gstar = g_conjugate_table(instance).ravel()
        for k in np.flatnonzero(np.isfinite(gstar) & (gstar <= TOL)):
            member = search.member_at(k)
            if _g_of_l_gap(instance, member) >= -TOL:
                return _psi_found(which, member)
        return ConditionCheck(False, which, {"majorizing_psi_found": False}, {})

    if which == "c":
        if phi is None or psi is None:
            raise InvariantViolation("condition (c) needs phi and psi")
        _require_psi(instance, psi)
        if not instance.phi.contains(phi):
            raise InvariantViolation("phi is not a member of the input class")
        if r is not None and not epi_contains(
            instance, "composite", EpiPoint(phi, r), tol=VALUE_TOL
        ):
            raise InvariantViolation("(phi, r) is not in the composite epigraph")
        pb = pullback(psi, instance.L)
        for part, h in (("difference", phi - pb), ("pullback", pb)):
            m = _nonneg_quadratic_minorant(instance.phi, h)
            conditions[f"{part}_has_minorant"] = m is not None
            if m is not None:
                details[f"{part}_minorant_slack"] = minimize_quadratic(h - m)[0]
        return ConditionCheck(all(conditions.values()), which, conditions, details)

    if which == "d":
        closed = instance.phi.curvature.closed_under_differences
        conditions["class_closed_under_differences"] = closed
        if psi is not None:
            _require_psi(instance, psi)
        if psi is None or x is None:
            details["witness"] = "not-provided"
            return ConditionCheck(closed, which, conditions, details)
        x = np.asarray(x, dtype=float).reshape(-1)
        gl, family = _target_objective(instance, "g_of_L")
        if phi_eps is None and gl.exact is not None:
            # exact tangent member of the input class to g o L at x
            phi_eps = family.tangent(gl.exact, x)
        if phi_eps is None:
            conditions["witness_constructed"] = False
            return ConditionCheck(False, which, conditions, details)
        conditions["phi_eps_in_class"] = family.contains(phi_eps)
        conditions["phi_eps_subgradient"] = eps_subdiff_contains(
            gl, phi_eps, x, _D_SUBGRADIENT_EPS, grid=instance.x_search
        )
        pb = pullback(psi, instance.L)
        sup_gap = conjugate_closed_form(phi_eps, pb).value
        lhs = float(pb(x)) - float(phi_eps(x)) + _D_GAP_MARGIN
        conditions["strict_gap"] = lhs > sup_gap
        details["lhs"] = lhs
        details["sup_gap"] = sup_gap
        return ConditionCheck(all(conditions.values()), which, conditions, details)

    raise InvariantViolation(f"unknown condition {which!r}")


def _psi_found(which: str, psi: GeneralizedQuadratic) -> ConditionCheck:
    """Condition (a) or (b) holding at the grid member psi."""
    return ConditionCheck(True, which, {"majorizing_psi_found": True},
                          {"psi_curvature": float(psi.A[0, 0]),
                           "psi_slope_norm": float(np.linalg.norm(psi.u))})


def _g_of_l_gap(instance: ProblemInstance, member: GeneralizedQuadratic) -> float:
    """``inf_x [psi(Lx) - g(Lx)]`` — nonnegative iff psi o L majorizes g o L."""
    pb = pullback(member, instance.L)
    if instance.g.exact is not None:
        return minimize_quadratic(pb - pullback(instance.g.exact, instance.L))[0]
    gv = instance.g_on_mesh
    ok = np.isfinite(gv)
    return float(np.min(pb(instance.x_search.mesh()[ok]) - gv[ok], initial=INF))
