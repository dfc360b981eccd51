"""Lagrangian values, sup-inf vs inf-sup, intersection property, value
function probes, and the support-point zero-gap test.

Hand-derived anchors:

* ``f=x^2-3x-10, g=2y+1`` (inst611): L(0.5, 2y+1) = -11.25 + 2 - 0 = -9.25,
  and sup-inf = inf-sup = -9.25 (the only dual-feasible slope is 2).
* ``f=(x+1)^2, g=4y^2`` (inst47): V(1) = min 5(x+1)^2 = 0.
"""

import numpy as np
import pytest

import oracles
from abconv import (
    Box,
    CurvatureSpec,
    Family,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    IntersectionWitness,
    InvariantViolation,
    LagrangianContext,
    LinearMap,
    Objective,
    ProblemInstance,
    ValueFunctionProbe,
    convexification_preserves_value,
    dcp_value,
    intersection_property,
    lagrangian_value,
    ld_value,
    lp_value,
    lsc_probe_at_zero,
    primal_value,
    psi_convexity_at_optimum,
    support_point_zero_gap_check,
    value_function,
)

from conftest import FUZZ_DIMS

ID1 = LinearMap.identity(1)


def quad_obj(dim, a, u=None, c=0.0, box=None):
    return Objective.quadratic(GeneralizedQuadratic.iso(dim, a, u, c), domain_box=box)


def build(f, g, phi_kind=None, psi_kind=None, **kw):
    phi = Family(1, phi_kind or CurvatureSpec.nonpos())
    psi = Family(1, psi_kind or CurvatureSpec.zero())
    return ProblemInstance.build(f=f, g=g, L=ID1, phi=phi, psi=psi, **kw)


def assert_dense_lp(ctx):
    """lp_value equals the dense reference: value, first-index minimizer
    and flags, bit for bit.  Returns the result."""
    inst = ctx.instance
    search = inst.psi_search
    X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
    value, idx = oracles.lp_dense(
        inst.f.values(X), inst.L.apply(X), search.slopes(), search.curvatures,
        ctx.gstar_table(),
    )
    res = lp_value(ctx)
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    if value == INF:
        assert res.minimizer is None
        assert res.flags == ("grid_truncated", "infeasible_window")
    else:
        assert res.minimizer.tobytes() == X[idx].tobytes()
        extra = ("biconjugate_minus_infinity",) if value == -INF else ()
        assert res.flags == ("grid_truncated",) + extra
    return res


class TestLagrangianContext:
    def test_tables_are_computed_once(self, inst47, make_ctx):
        ctx = make_ctx(inst47)
        assert ctx.gstar_table() is ctx.gstar_table()
        assert ctx.inf_table() is ctx.inf_table()

    def test_member_conjugates_are_memoized(self, inst47, make_ctx):
        ctx = make_ctx(inst47)
        psi = GeneralizedQuadratic.affine([-1.6])
        first = ctx.g_conjugate(psi)
        assert ctx.g_conjugate(psi) == first
        assert len(ctx._gstar_cache) == 1
        assert first == pytest.approx(1.6**2 / 16.0, abs=1e-12)


class TestLagrangianValue:
    def test_frozen_value_at_the_saddle(self, inst611, make_ctx):
        ctx = make_ctx(inst611)
        psi = GeneralizedQuadratic.affine([2.0], 1.0)
        assert lagrangian_value(ctx, [0.5], psi) == pytest.approx(-9.25, abs=1e-12)

    def test_minus_infinity_for_dual_infeasible_member(self, make_ctx):
        ctx = make_ctx(build(quad_obj(1, 1.0), quad_obj(1, -1.0)))
        assert lagrangian_value(ctx, [0.0], GeneralizedQuadratic.zero(1)) == -INF

    def test_plus_infinity_outside_dom_f(self, make_ctx):
        f = quad_obj(1, 1.0, box=Box([-1.0], [1.0]))
        ctx = make_ctx(build(f, quad_obj(1, 4.0)))
        assert lagrangian_value(ctx, [5.0], GeneralizedQuadratic.zero(1)) == INF

    def test_rejects_foreign_members(self, inst47, make_ctx):
        ctx = make_ctx(inst47)
        with pytest.raises(InvariantViolation):
            lagrangian_value(ctx, [0.0], GeneralizedQuadratic.iso(1, -1.0))


class TestLdLp:
    def test_ld_is_the_dual_sweep_bit_for_bit(self, inst47, inst48, make_ctx):
        for inst in (inst47, inst48):
            ctx = make_ctx(inst)
            ld = ld_value(ctx)
            dcp = dcp_value(inst)
            assert ld.value == dcp.value
            np.testing.assert_array_equal(ld.attaining.u, dcp.attaining.u)

    def test_lp_frozen_value(self, inst47, make_ctx):
        res = lp_value(make_ctx(inst47))
        assert res.value == pytest.approx(0.8, abs=1e-9)
        np.testing.assert_allclose(res.minimizer, [-0.2], atol=1e-9)
        assert res.flags == ("grid_truncated",)

    def test_sup_inf_below_inf_sup_on_catalog(
        self, inst47, inst48, inst610, inst611, make_ctx
    ):
        expected = {"ex4.7": 0.8, "ex4.8": -6.0, "ex6.10": -19.0, "ex6.11": -9.25}
        for inst in (inst47, inst48, inst610, inst611):
            ctx = make_ctx(inst)
            ld = ld_value(ctx).value
            lp = lp_value(ctx).value
            assert ld <= lp + 1e-9
            assert ld == pytest.approx(expected[inst.name], abs=1e-9)
            assert lp == pytest.approx(expected[inst.name], abs=1e-9)

    def test_lp_minus_infinity_when_biconjugate_collapses(self, make_ctx):
        ctx = make_ctx(build(quad_obj(1, 1.0), quad_obj(1, -1.0)))
        assert np.all(ctx.gstar_table() == INF)
        res = assert_dense_lp(ctx)
        assert res.value == -INF
        assert "biconjugate_minus_infinity" in res.flags

    @pytest.mark.parametrize("n,m", FUZZ_DIMS)
    def test_lp_matches_the_dense_reference_bit_for_bit(
        self, n, m, fuzz_instance, make_ctx
    ):
        for seed in range(2):
            assert_dense_lp(make_ctx(fuzz_instance(n, m, 100 * seed + 10 * n + m)))

    def test_lp_matches_the_dense_reference_on_the_catalog(
        self, inst47, inst47r, inst48, inst56, inst610, inst611, make_ctx
    ):
        for inst in (inst47, inst47r, inst48, inst56, inst610, inst611):
            assert_dense_lp(make_ctx(inst))

    def test_lp_ties_resolve_to_the_first_mesh_point(self, make_ctx):
        # g = 0 over affine members: only the zero slope is finite, g** = 0.
        zero = quad_obj(1, 0.0)
        res = assert_dense_lp(make_ctx(build(zero, zero)))
        assert res.value == 0.0 and res.minimizer.tolist() == [-10.0]
        # f = x^2 + x ties at x = -1 and x = 0, neither in the strided sample.
        f = quad_obj(1, 1.0, [1.0])
        inst = build(f, zero, x_search=GridSpec(Box.cube(1, -16.0, 16.0), 33, 2))
        res = assert_dense_lp(make_ctx(inst))
        assert res.value == 0.0 and res.minimizer.tolist() == [-1.0]

    @pytest.mark.filterwarnings("ignore:no feasible point found")
    def test_lp_single_feasible_point(self, fuzz_instance, make_ctx):
        # One point is one BLAS row, which must still round like the mesh.
        for seed in (0, 1):
            raw = fuzz_instance(2, 3, seed)
            search = raw.psi_search
            X = raw.x_search.box.mesh(raw.x_search.points_per_axis)
            fv = raw.f.values(X)
            gdd = oracles.biconjugate_dense(
                raw.L.apply(X), search.slopes(), search.curvatures,
                make_ctx(raw).gstar_table(),
            )
            for k in range(0, len(X), 97):
                f = Objective.quadratic(raw.f.quad, domain_box=Box(X[k] - 0.1, X[k] + 0.1))
                inst = ProblemInstance.build(
                    f=f, g=raw.g, L=raw.L, phi=raw.phi, psi=raw.psi,
                    x_search=raw.x_search, psi_search=search,
                )
                res = lp_value(make_ctx(inst))
                assert np.float64(res.value).tobytes() == (fv[k] + gdd[k]).tobytes()
                assert res.minimizer.tolist() == X[k].tolist()

    def test_lp_infeasible_window(self, make_ctx):
        with pytest.warns(UserWarning):
            inst = build(quad_obj(1, 1.0, box=Box([50.0], [60.0])), quad_obj(1, 1.0))
        res = assert_dense_lp(make_ctx(inst))
        assert res.minimizer is None and "infeasible_window" in res.flags

    def test_convexification_check(self, inst47, inst611, make_ctx):
        assert convexification_preserves_value(make_ctx(inst47))
        assert convexification_preserves_value(make_ctx(inst611))
        bad = make_ctx(build(quad_obj(1, 1.0), quad_obj(1, -1.0)))
        assert not convexification_preserves_value(bad)


class TestPsiConvexityAtOptimum:
    def test_holds_at_the_minimizer(self, inst47, make_ctx):
        assert psi_convexity_at_optimum(make_ctx(inst47), [-0.2])

    def test_rejects_non_optimal_points(self, inst47, make_ctx):
        with pytest.raises(InvariantViolation):
            psi_convexity_at_optimum(make_ctx(inst47), [1.0])


class TestIntersectionProperty:
    def test_opposite_affine_pair(self):
        phi1 = GeneralizedQuadratic.affine([1.0])
        phi2 = GeneralizedQuadratic.affine([-1.0])
        wit = intersection_property(phi1, phi2, -0.1)
        assert wit is not None and wit.holds
        assert wit.t0 == pytest.approx(0.5, abs=1e-9)
        assert wit.min_value == pytest.approx(0.0, abs=1e-12)
        assert intersection_property(phi1, phi2, 0.1) is None

    def test_convex_pair_peak_at_midpoint(self):
        phi1 = GeneralizedQuadratic.iso(1, 1.0, [2.0])
        phi2 = GeneralizedQuadratic.iso(1, 1.0, [-2.0])
        # min of the combination is -(2t-1)^2, maximal (= 0) at t = 1/2
        wit = intersection_property(phi1, phi2, -0.05)
        assert wit is not None and wit.holds
        assert wit.t0 == pytest.approx(0.5, abs=1e-6)
        assert wit.min_value == pytest.approx(0.0, abs=1e-9)
        assert intersection_property(phi1, phi2, 0.05) is None

    def test_needle_maximum_from_slope_cancellation(self):
        phi1 = GeneralizedQuadratic.iso(1, 1.0, [1.0])
        phi2 = GeneralizedQuadratic.iso(1, -1.0, [-1.0])
        # finite only at exactly t = 1/2, where the combination vanishes
        wit = intersection_property(phi1, phi2, 0.0)
        assert wit is not None and wit.holds
        assert wit.t0 == pytest.approx(0.5, abs=1e-8)
        assert wit.min_value == pytest.approx(0.0, abs=1e-9)

    def test_concave_pair_has_no_witness(self):
        phi1 = GeneralizedQuadratic.iso(1, -1.0)
        phi2 = GeneralizedQuadratic.iso(1, -1.0, [1.0])
        assert intersection_property(phi1, phi2, -5.0) is None

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            intersection_property(
                GeneralizedQuadratic.zero(1), GeneralizedQuadratic.zero(2), 0.0
            )

    def test_witness_holds_property(self):
        assert IntersectionWitness(0.5, -1.0, 0.0).holds
        assert not IntersectionWitness(0.5, 1.0, 0.0).holds

    def test_bruteforce_direct(self):
        phi1 = ([[0.0]], [1.0], 0.0)  # x
        phi2 = ([[0.0]], [-1.0], 0.0)  # -x
        kw = dict(z_points=201, t_points=1001)
        assert oracles.intersection_brute(phi1, phi2, -0.1, -10.0, 10.0, **kw)
        assert not oracles.intersection_brute(phi1, phi2, 0.1, -10.0, 10.0, **kw)

    def test_search_agrees_with_independent_oracle(self, rng):
        def draw():
            a = float(rng.uniform(0.3, 1.5)) * (1 if rng.random() < 0.5 else -1)
            u = float(rng.uniform(-2.0, 2.0))
            c = float(rng.uniform(-1.0, 1.0))
            return GeneralizedQuadratic.iso(1, a, [u], c), ([[a]], [u], c)

        for _ in range(20):
            phi1, p1 = draw()
            phi2, p2 = draw()
            probe = intersection_property(phi1, phi2, -1e18)
            if probe is None:
                # every combination is unbounded below
                assert not oracles.intersection_brute(p1, p2, -20.0, -30.0, 30.0)
                continue
            peak = probe.min_value
            wit = intersection_property(phi1, phi2, peak - 0.15)
            assert wit is not None and wit.holds
            assert oracles.intersection_brute(p1, p2, peak - 0.15, -30.0, 30.0)
            assert intersection_property(phi1, phi2, peak + 0.15) is None
            assert not oracles.intersection_brute(p1, p2, peak + 0.15, -30.0, 30.0)


class TestValueFunction:
    def test_zero_perturbation_is_the_primal_bit_for_bit(self, inst47, make_ctx):
        ctx = make_ctx(inst47)
        assert value_function(ctx, [0.0]) == primal_value(inst47).value

    def test_frozen_shift(self, inst47, make_ctx):
        # V(1) = min (x+1)^2 + 4(x+1)^2 = 0
        assert value_function(make_ctx(inst47), [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, inst47, make_ctx):
        with pytest.raises(InvariantViolation):
            value_function(make_ctx(inst47), [0.0, 0.0])


class TestValueFunctionProbe:
    def test_validation(self):
        with pytest.raises(InvariantViolation):
            ValueFunctionProbe(radius_ladder=())
        with pytest.raises(InvariantViolation):
            ValueFunctionProbe(radius_ladder=(1.0, -0.1))
        with pytest.raises(InvariantViolation):
            ValueFunctionProbe(radius_ladder=(0.1, 0.1))
        with pytest.raises(InvariantViolation):
            ValueFunctionProbe(samples_per_radius=4)
        with pytest.raises(InvariantViolation):
            ValueFunctionProbe(eps=0.0)


class TestLscProbe:
    def test_true_on_a_well_behaved_instance(self, inst47, make_ctx):
        assert lsc_probe_at_zero(make_ctx(inst47))

    def test_false_when_the_value_function_drops_at_zero(self, make_ctx):
        # f = -100 x on a fine window, g = indicator-like (0 on y <= 0):
        # V(y) = -100 * min(1, -y) for feasibility x <= -y, so V(0) = 0 but
        # V jumps down by 100*r for perturbations of size r.
        f = Objective.quadratic(GeneralizedQuadratic.affine([-100.0]))
        g = Objective.quadratic(
            GeneralizedQuadratic.zero(1), domain_box=Box([-INF], [0.0])
        )
        inst = build(
            f, g, x_search=GridSpec(Box([-1.0], [1.0]), points_per_axis=40001,
                                    refine_rounds=0)
        )
        assert not lsc_probe_at_zero(make_ctx(inst))

    def test_raises_when_v0_not_finite(self, make_ctx):
        f = quad_obj(1, 1.0, box=Box([5.0], [6.0]))
        with pytest.warns(UserWarning):
            inst = build(
                f, quad_obj(1, 1.0),
                x_search=GridSpec(Box([-1.0], [1.0]), points_per_axis=11,
                                  refine_rounds=0),
            )
        with pytest.raises(InvariantViolation):
            lsc_probe_at_zero(make_ctx(inst))


class TestSupportPointCheck:
    def test_all_conditions_at_a_clean_support(self, make_ctx):
        ctx = make_ctx(build(quad_obj(1, 1.0), quad_obj(1, 1.0)))
        check = support_point_zero_gap_check(
            ctx, GeneralizedQuadratic.zero(1), [0.0], 0.0
        )
        assert check.holds and all(check.conditions.values())
        assert check.details["support_slack"] == pytest.approx(0.0, abs=1e-12)
        assert check.details["inf_f_plus_psi"] == pytest.approx(0.0, abs=1e-12)

    def test_point_conditions_fail_off_the_support_set(self, inst611, make_ctx):
        ctx = make_ctx(inst611)
        psi = GeneralizedQuadratic.affine([2.0], 1.0)
        check = support_point_zero_gap_check(ctx, psi, [1.5], -9.25)
        assert not check.holds
        assert check.conditions["psi_supports_g"]
        assert check.conditions["alpha_below_inf"]
        assert check.conditions["sandwich"]
        assert not check.conditions["point_in_support_set"]
        assert not check.conditions["g_nonpositive_at_point"]
        assert check.details["sup_member_minus_gstar"] == pytest.approx(4.0, abs=1e-9)
        assert check.details["g_at_Lx0"] == pytest.approx(4.0, abs=1e-12)

    def test_level_condition_fails_above_the_inf(self, inst611, make_ctx):
        ctx = make_ctx(inst611)
        psi = GeneralizedQuadratic.affine([2.0], 1.0)
        check = support_point_zero_gap_check(ctx, psi, [0.5], -9.0)
        assert not check.conditions["alpha_below_inf"]
        assert check.details["inf_f_plus_psi"] == pytest.approx(-9.25, abs=1e-9)
