"""Bundled worked instances and their reference reproduction checks.

Catalog names are part of the CLI surface (``abconv reproduce <name>``).
Each entry fixes the problem data, the input/output function classes, and
the search grids; ``reproduce_checks`` recomputes the documented reference
values and reports one pass/fail row per fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL, VALUE_TOL, values_agree
from .conjugates import conjugate_value, minimize_quadratic
from .duality import (
    EpiPoint,
    GapCertificate,
    ProblemInstance,
    composite_condition_check,
    dcp_value,
    epi_contains,
    epi_decompose,
    primal_value,
    verify_gap_certificate,
    verify_optimality_at,
)
from .errors import UnknownCatalogName
from .lagrange import (
    LagrangianContext,
    lagrangian_value,
    ld_value,
    lp_value,
    support_point_scan,
)
from .objectives import INF, Objective
from .quadratics import (
    CurvatureSpec,
    Family,
    GeneralizedQuadratic,
    LinearMap,
)


def _quad(dim, A, u, c) -> Objective:
    return Objective.quadratic(GeneralizedQuadratic(dim, np.array(A, dtype=float),
                                                    np.array(u, dtype=float), c))


def _ex47() -> ProblemInstance:
    # f(x) = (x+1)^2, g(y) = 4 y^2, L = id; input class: concave-parabola
    # members -a x^2 + b x (a >= 0, no constants); output class: linear.
    return ProblemInstance.build(
        f=_quad(1, [[1.0]], [2.0], 1.0),
        g=_quad(1, [[4.0]], [0.0], 0.0),
        L=LinearMap.identity(1),
        phi=Family(1, CurvatureSpec.nonpos(), includes_constants=False),
        psi=Family(1, CurvatureSpec.zero(), includes_constants=False),
        name="ex4.7",
    )


def _ex47_reversed() -> ProblemInstance:
    # Same data with the classes swapped: linear inputs, curved outputs.
    return ProblemInstance.build(
        f=_quad(1, [[1.0]], [2.0], 1.0),
        g=_quad(1, [[4.0]], [0.0], 0.0),
        L=LinearMap.identity(1),
        phi=Family(1, CurvatureSpec.zero(), includes_constants=False),
        psi=Family(1, CurvatureSpec.nonpos(), includes_constants=False),
        name="ex4.7-reversed",
    )


def _ex48() -> ProblemInstance:
    # f(x, y) = 3x^2 + 2y^2, g(z) = -(z-1)^2, L(x, y) = x - y.
    return ProblemInstance.build(
        f=_quad(2, [[3.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 0.0),
        g=_quad(1, [[-1.0]], [2.0], -1.0),
        L=LinearMap(np.array([[1.0, -1.0]])),
        phi=Family(2, CurvatureSpec.nonpos(), includes_constants=False),
        psi=Family(1, CurvatureSpec.nonpos(), includes_constants=False),
        name="ex4.8",
    )


def _ex56() -> ProblemInstance:
    # f(x, y) = x^2 + y^2, g(z) = 2 z^2, L(x, y) = x + y.
    return ProblemInstance.build(
        f=_quad(2, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0),
        g=_quad(1, [[2.0]], [0.0], 0.0),
        L=LinearMap(np.array([[1.0, 1.0]])),
        phi=Family(2, CurvatureSpec.nonpos(), includes_constants=False),
        psi=Family(1, CurvatureSpec.zero(), includes_constants=False),
        name="ex5.6",
    )


def _ex610() -> ProblemInstance:
    # f(x) = 3x^2 - 3x - 10, g(y) = -2y^2 + y - 8, L = id; both classes are
    # concave parabolas with constants.
    return ProblemInstance.build(
        f=_quad(1, [[3.0]], [-3.0], -10.0),
        g=_quad(1, [[-2.0]], [1.0], -8.0),
        L=LinearMap.identity(1),
        phi=Family(1, CurvatureSpec.nonpos(), includes_constants=True),
        psi=Family(1, CurvatureSpec.nonpos(), includes_constants=True),
        name="ex6.10",
    )


def _ex611() -> ProblemInstance:
    # f(x) = x^2 - 3x - 10, g(y) = 2y + 1, L = id; both classes affine with
    # constants.
    return ProblemInstance.build(
        f=_quad(1, [[1.0]], [-3.0], -10.0),
        g=_quad(1, [[0.0]], [2.0], 1.0),
        L=LinearMap.identity(1),
        phi=Family(1, CurvatureSpec.zero(), includes_constants=True),
        psi=Family(1, CurvatureSpec.zero(), includes_constants=True),
        name="ex6.11",
    )


# ---------------------------------------------------------------------------
# Reproduction checks


@dataclass(frozen=True)
class CheckRow:
    label: str
    passed: bool
    detail: str


def _value_row(label: str, computed: float, expected: float, tol: float = VALUE_TOL) -> CheckRow:
    return CheckRow(label, values_agree(computed, expected, tol),
                    f"computed {computed:.12g}, expected {expected:.12g}")


def _bool_row(label: str, outcome: bool, expected: bool, detail: str) -> CheckRow:
    return CheckRow(label, outcome == expected, detail)


def _checks_ex47(inst: ProblemInstance) -> list[CheckRow]:
    ctx = LagrangianContext(inst)
    p = primal_value(inst)
    d = dcp_value(inst, inf_table=ctx.inf_table(), gstar_table=ctx.gstar_table())
    ld = ld_value(ctx)
    rows = [
        _value_row("primal value", p.value, 0.8),
        _value_row("conjugate dual value", d.value, 0.8),
        _value_row("duality gap", p.value - d.value, 0.0),
        _bool_row(
            "lagrange dual equals conjugate dual",
            ld.value == d.value,
            True,
            f"ld {ld.value:.17g}, dcp {d.value:.17g}",
        ),
    ]
    opt = verify_optimality_at(inst, p.minimizer)
    rows.append(
        _bool_row(
            "certificate ladder at the minimizer",
            opt.holds,
            True,
            f"x {np.round(p.minimizer, 6)}, ladder depth {len(opt.ladder)}",
        )
    )
    return rows


def _checks_ex47_reversed(inst: ProblemInstance) -> list[CheckRow]:
    ctx = LagrangianContext(inst)
    p = primal_value(inst)
    d = ld_value(ctx)
    rows = [
        _value_row("primal value", p.value, 0.8),
        _value_row("conjugate dual value", d.value, 0.8),
    ]
    # With the classes swapped the dual sup is attained along curved members;
    # phi - psi o L then carries positive curvature and leaves the (affine)
    # input class, so the difference condition must report failure.
    psi_curved = GeneralizedQuadratic.iso(1, -0.5, [-1.8])
    phi_zero = GeneralizedQuadratic.zero(1)
    cond = composite_condition_check(inst, phi_zero, psi_curved, variant="difference")
    rows.append(
        _bool_row(
            "difference condition flags curved dual member",
            cond,
            False,
            "phi - psi o L leaves the input class (curvature +0.5)",
        )
    )
    return rows


def _checks_ex48(inst: ProblemInstance) -> list[CheckRow]:
    ctx = LagrangianContext(inst)
    p = primal_value(inst)
    d = ld_value(ctx)
    rows = [
        _value_row("primal value", p.value, -6.0),
        _value_row("conjugate dual value", d.value, -6.0),
    ]
    # Output conjugate branches: infinite below curvature 1, pinned at the
    # kink, parabolic above it.
    def gstar(c, dslope):
        member = GeneralizedQuadratic.iso(1, -c, [dslope])
        return conjugate_value(inst.g, member).value

    rows.append(_value_row("output conjugate at curvature 0.5", gstar(0.5, 1.0), INF))
    rows.append(_value_row("output conjugate at the kink", gstar(1.0, 2.0), 1.0))
    rows.append(_value_row("output conjugate above the kink", gstar(2.0, 3.0), 1.25))
    cert = GapCertificate(
        "thm42", 1e-3, np.array([-2.0, 3.0]), GeneralizedQuadratic.iso(1, -1.0, [2.0])
    )
    check = verify_gap_certificate(inst, cert)
    rows.append(
        _bool_row(
            "tangent certificate at the minimizer",
            check.holds,
            True,
            "; ".join(f"{k}={v}" for k, v in check.conditions.items()),
        )
    )
    return rows


def _checks_ex56(inst: ProblemInstance) -> list[CheckRow]:
    phi = GeneralizedQuadratic.affine([1.0, 1.0])
    comp = inst.composite_objective()
    comp_star = conjugate_value(comp, phi).value
    f_star = conjugate_value(inst.f, phi).value
    rows = [
        _value_row("composite conjugate at the probe slope", comp_star, 0.1),
        _value_row("input conjugate at the probe slope", f_star, 0.5),
    ]
    point = EpiPoint(phi, 1.0)
    split = epi_decompose(inst, point)
    if split is None:
        rows.append(CheckRow("epigraph decomposition found", False, "no split returned"))
        return rows
    rows.append(
        CheckRow(
            "epigraph decomposition found",
            True,
            f"psi curvature {split.psi.A[0, 0]:.3g}, slope {split.psi.u[0]:.3g}, "
            f"levels ({split.c_phi:.3g}, {split.c_psi:.3g})",
        )
    )
    rows.append(
        _bool_row(
            "split output member is zero",
            bool(split.psi.is_zero()),
            True,
            f"psi = {split.psi.A[0, 0]:.3g} z^2 + {split.psi.u[0]:.3g} z + {split.psi.c:.3g}",
        )
    )
    rows.append(_value_row("input-part level", split.c_phi, 1.0, tol=TOL))
    rows.append(_value_row("output-part level", split.c_psi, 0.0, tol=TOL))
    member_f = epi_contains(inst, "f", EpiPoint(split.phi1, split.c_phi))
    member_g = epi_contains(inst, "g", EpiPoint(split.psi, split.c_psi))
    rows.append(
        _bool_row(
            "split memberships verify",
            member_f and member_g,
            True,
            f"input epigraph {member_f}, output epigraph {member_g}",
        )
    )
    return rows


def _checks_ex610(inst: ProblemInstance) -> list[CheckRow]:
    ctx = LagrangianContext(inst)
    p = primal_value(inst)
    d = ld_value(ctx)
    lp = lp_value(ctx)
    rows = [
        _value_row("primal value", p.value, -19.0),
        _value_row("lagrange dual value", d.value, -19.0),
        _value_row("convexified primal value", lp.value, -19.0),
        _value_row("duality gap", p.value - d.value, 0.0),
    ]
    # The support-point route is empty here even though the gap is zero: the
    # level alpha = -19 sits strictly below min f = -10.75, so no base point
    # can satisfy f(x0) <= alpha.
    min_f = minimize_quadratic(inst.f.exact)[0]
    rows.append(
        _bool_row(
            "support-point route is empty (level below min f)",
            bool(min_f > d.value + VALUE_TOL),
            True,
            f"min f = {min_f:.6g} > level {d.value:.6g}",
        )
    )
    return rows


def _checks_ex611(inst: ProblemInstance) -> list[CheckRow]:
    ctx = LagrangianContext(inst)
    p = primal_value(inst)
    d = ld_value(ctx)
    lp = lp_value(ctx)
    rows = [
        _value_row("primal value", p.value, -9.25),
        _value_row("lagrange dual value", d.value, -9.25),
        _value_row("convexified primal value", lp.value, -9.25),
    ]
    psi = GeneralizedQuadratic.affine([2.0], 1.0)
    lval = lagrangian_value(ctx, np.array([0.5]), psi)
    rows.append(_value_row("lagrangian at the saddle candidate", lval, -9.25))
    # Zero gap holds, but the support-point route cannot certify it: a
    # support member 2x + b needs b <= 1, which caps the level at
    # alpha <= inf(f + psi o L) = b - 41/4 <= -37/4, while the point
    # condition forces g(x0) <= 0, i.e. x0 <= -1/2, where f >= -33/4 — so
    # the sandwich f(x0) <= alpha can never close.  One scan per member, over
    # about 100 evenly spaced mesh points.
    X = inst.x_search.mesh()
    X0 = X[:: max(1, len(X) // 100)]
    found = None
    for b in (1.0, 0.0):
        member = GeneralizedQuadratic.affine([2.0], b)
        hits = np.flatnonzero(support_point_scan(ctx, member, X0, b - 41.0 / 4.0).holds)
        if hits.size:
            found = (b, float(X0[hits[0], 0]))
            break
    rows.append(
        _bool_row(
            "support-point route is empty on the sampled grid",
            found is None,
            True,
            "no (member, base point) pair satisfies all conditions"
            if found is None
            else f"unexpected certificate at b={found[0]}, x0={found[1]}",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# The catalog: each name's instance builder and reproduction checks


_CATALOG = {
    "ex4.7": (_ex47, _checks_ex47),
    "ex4.7-reversed": (_ex47_reversed, _checks_ex47_reversed),
    "ex4.8": (_ex48, _checks_ex48),
    "ex5.6": (_ex56, _checks_ex56),
    "ex6.10": (_ex610, _checks_ex610),
    "ex6.11": (_ex611, _checks_ex611),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_instance(name: str) -> ProblemInstance:
    try:
        build, _ = _CATALOG[name]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise UnknownCatalogName(f"unknown instance {name!r} (known: {known})") from None
    return build()


def reproduce_checks(name: str) -> list[CheckRow]:
    """Recompute the reference facts for a bundled instance."""
    inst = catalog_instance(name)
    return _CATALOG[name][1](inst)
