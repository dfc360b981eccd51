"""Lagrangian values, sup-inf vs inf-sup, intersection property, value
function probes, and the support-point zero-gap test.

Hand-derived anchors:

* ``f=x^2-3x-10, g=2y+1`` (inst611): L(0.5, 2y+1) = -11.25 + 2 - 0 = -9.25,
  and sup-inf = inf-sup = -9.25 (the only dual-feasible slope is 2).
* ``f=(x+1)^2, g=4y^2`` (inst47): V(1) = min 5(x+1)^2 = 0.
"""

import warnings

import numpy as np
import pytest

import oracles
from test_value_contract import workload

import abconv
from abconv import (
    Box,
    CurvatureSpec,
    Family,
    FamilySearchGrid,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    IntersectionWitness,
    InvariantViolation,
    LagrangianContext,
    LinearMap,
    Objective,
    ProblemInstance,
    RandomSpec,
    catalog_instance,
    catalog_names,
    convexification_preserves_value,
    dcp_value,
    instance_from_dict,
    intersection_property,
    lagrangian_value,
    ld_value,
    lp_value,
    lsc_probe_at_zero,
    primal_value,
    psi_convexity_at_optimum,
    random_instance,
    support_point_scan,
    support_point_zero_gap_check,
    value_function,
)
from abconv.config import VALUE_TOL
from abconv.conjugates import _biconjugate_argmax, _biconjugate_lower_bound, biconjugate_many
from abconv.lagrange import _LP_PRUNE_RTOL, _LP_SAMPLE_STRIDE, _value_function_many

from conftest import FUZZ_DIMS, infeasible_part_dict

ID1 = LinearMap.identity(1)


def quad_obj(dim, a, u=None, c=0.0, box=None):
    return Objective.quadratic(GeneralizedQuadratic.iso(dim, a, u, c), domain_box=box)


def build(f, g, phi_kind=None, psi_kind=None, **kw):
    phi = Family(1, phi_kind or CurvatureSpec.nonpos())
    psi = Family(1, psi_kind or CurvatureSpec.zero())
    return ProblemInstance.build(f=f, g=g, L=ID1, phi=phi, psi=psi, **kw)


def boxed_instance(n, m, kind, seed):
    """Gridbox-style instance from a random one: a boxed f (kind "f"), a
    boxed g ("g") or a boxed callable g ("callable"); the boxes hold 0."""
    rng = np.random.default_rng(seed)
    raw = random_instance(RandomSpec(n=n, m=m), seed)
    f_box = Box(-rng.uniform(1.0, 6.0, n), rng.uniform(1.0, 6.0, n))
    g_box = Box(-rng.uniform(1.0, 6.0, m), rng.uniform(1.0, 6.0, m))
    f, g = raw.f, raw.g
    if kind == "f":
        f = Objective.quadratic(raw.f.quad, domain_box=f_box)
    elif kind == "g":
        g = Objective.quadratic(raw.g.quad, domain_box=g_box)
    else:
        g = Objective.from_callable(
            m, lambda y, q=raw.g.quad: float(q(np.asarray(y, dtype=float))),
            domain_box=g_box)
    return ProblemInstance.build(
        f=f, g=g, L=raw.L, phi=raw.phi, psi=raw.psi,
        psi_search=FamilySearchGrid.default(
            raw.psi, slope_points={1: 15, 2: 5}[m], curvature_points=5),
        x_search=GridSpec(Box.cube(n), {1: 51, 2: 21}[n], 2),
        y_search=GridSpec(Box.cube(m), {1: 41, 2: 11}[m], 2),
        name=f"boxed-{kind}",
    )


BOXED = [(n, m, kind) for kind in ("f", "g", "callable")
         for n, m in ((1, 1), (2, 1), (1, 2), (2, 2))]


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
        with pytest.raises(TypeError):
            LagrangianContext(inst47, np.zeros((1, 1)))



class TestLagrangianValue:
    def test_member_conjugate_enters_the_value(self, inst47, make_ctx):
        # g*(-1.6 y) = 1.6**2 / 16 = 0.16, and f(0) + psi(L 0) = f(0)
        ctx = make_ctx(inst47)
        psi = GeneralizedQuadratic.affine([-1.6])
        expected = inst47.f.value([0.0]) - 1.6**2 / 16.0
        assert lagrangian_value(ctx, [0.0], psi) == pytest.approx(expected, abs=1e-12)

    def test_frozen_value_at_the_saddle(self, inst611, make_ctx):
        ctx = make_ctx(inst611)
        psi = GeneralizedQuadratic.affine([2.0], 1.0)
        assert lagrangian_value(ctx, [0.5], psi) == pytest.approx(-9.25, abs=1e-12)

    def test_minus_infinity_for_dual_infeasible_member(self, make_ctx):
        ctx = make_ctx(build(quad_obj(1, 1.0), quad_obj(1, -1.0)))
        assert lagrangian_value(ctx, [0.0], GeneralizedQuadratic.zero(1)) == -INF

    def test_ld_is_its_minimum_over_the_mesh_on_grid_instances(self, make_ctx):
        # At LD's member, inf over the x mesh of L(., psi) is LD: g*(psi)
        # includes the L-mesh candidates, as the dual sweep's table does.
        for inst in workload("gridbox")(abconv, 11).pool:
            ctx = make_ctx(inst)
            ld = ld_value(ctx)
            X = inst.x_search.mesh()
            x = X[np.argmin(inst.f_on_mesh + ld.attaining(inst.L.apply(X)))]
            assert abs(lagrangian_value(ctx, x, ld.attaining) - ld.value) <= VALUE_TOL

    def test_plus_infinity_outside_dom_f(self, make_ctx):
        f = quad_obj(1, 1.0, box=Box([-1.0], [1.0]))
        ctx = make_ctx(build(f, quad_obj(1, 4.0)))
        assert lagrangian_value(ctx, [5.0], GeneralizedQuadratic.zero(1)) == INF

    def test_rejects_foreign_members(self, inst47, make_ctx):
        ctx = make_ctx(inst47)
        with pytest.raises(InvariantViolation):
            lagrangian_value(ctx, [0.0], GeneralizedQuadratic.iso(1, -1.0))


class TestLdLp:
    @pytest.mark.parametrize("n,m", FUZZ_DIMS)
    def test_prune_bound_is_sound_on_fuzz_meshes(self, n, m, fuzz_instance):
        """lp_value's prune bound never exceeds the exact biconjugate by
        more than its slack on the term scale, at any mesh point: over the
        sample winners lp_value uses, and over up to 2,000 finite members."""
        inst = fuzz_instance(n, m, seed=11)
        search, table = inst.psi_search, LagrangianContext(inst).gstar_table()
        LX = inst.L.apply(inst.x_search.mesh())
        exact = biconjugate_many(inst.g, LX, search, table)
        finite = np.flatnonzero(np.isfinite(table.ravel()))
        _, winner = _biconjugate_argmax(LX[::_LP_SAMPLE_STRIDE], search, table)
        for members in (np.unique(winner[winner >= 0]), finite[::-(-len(finite) // 2000)]):
            assert len(members)
            lower, scale = _biconjugate_lower_bound(LX, members, search, table)
            assert np.all(lower <= exact + _LP_PRUNE_RTOL * scale)

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

    @pytest.mark.parametrize("part", ["f", "g"])
    def test_a_part_infinite_on_every_mesh_point(self, part, make_ctx):
        # f off the x mesh: each inf over the mesh is over no feasible point,
        # so +inf, and so is every value.  g off its meshes: every g* entry
        # is -inf, which excludes its member from every sweep, so the duals
        # and g** have no member: -inf, below the convexified primal.
        with pytest.warns(UserWarning, match="no feasible point"):
            inst = instance_from_dict(infeasible_part_dict(part))
        ctx = make_ctx(inst)
        ld, lp = ld_value(ctx), assert_dense_lp(ctx)
        assert primal_value(inst).value == INF
        expected = INF if part == "f" else -INF
        assert dcp_value(inst).value == ld.value == lp.value == expected
        assert ld.value <= lp.value
        # the support-point scan's infima over no feasible mesh point
        scan = support_point_scan(ctx, GeneralizedQuadratic.zero(1), np.zeros((1, 1)), 0.0)
        assert scan.details["inf_f_plus_psi" if part == "f" else "support_slack"][0] == INF
        if part == "g":
            assert np.all(ctx.gstar_table() == -INF)
            assert "all_members_excluded" in ld.flags and ld.attaining is None
            assert ld.excluded_infeasible == inst.psi_search.size

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
    def test_nan_level_is_rejected(self):
        phi1 = GeneralizedQuadratic.affine([1.0])
        phi2 = GeneralizedQuadratic.affine([-1.0])
        with pytest.raises(InvariantViolation, match="NaN"):
            intersection_property(phi1, phi2, float("nan"))

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

    def test_near_equal_curvatures_keep_the_stationary_point(self):
        # d = a1 - a2 is about 1e-14: the root as (r - a2)/d would cancel
        # in r - a2 and miss t = 1/2 by about 0.01.
        for phi1, phi2 in ((GeneralizedQuadratic.iso(1, 1.0 + 1e-14, [2.0]),
                            GeneralizedQuadratic.iso(1, 1.0, [-2.0])),
                           (GeneralizedQuadratic.iso(1, 1.0, [2.0]),
                            GeneralizedQuadratic.iso(1, 1.0 + 1e-14, [-2.0]))):
            wit = intersection_property(phi1, phi2, -1e-6)
            assert wit is not None
            assert wit.t0 == pytest.approx(0.5, abs=1e-9)
            assert wit.min_value == pytest.approx(0.0, abs=1e-12)

    def test_tiny_members_divide_by_no_zero(self):
        # E * (r + a2) underflows to 0 here; -A0 / E / (r + a2) does not.
        phi1 = GeneralizedQuadratic.iso(1, 2e-30, [1e-150])
        phi2 = GeneralizedQuadratic.iso(1, 1e-30)
        wit = intersection_property(phi1, phi2, -1.0)
        assert (wit.t0, wit.min_value) == (0.0, 0.0)

    def test_needle_maximum_from_slope_cancellation(self):
        phi1 = GeneralizedQuadratic.iso(1, 1.0, [1.0])
        phi2 = GeneralizedQuadratic.iso(1, -1.0, [-1.0])
        # finite only at exactly t = 1/2, where the combination vanishes
        wit = intersection_property(phi1, phi2, 0.0)
        assert wit is not None and wit.holds
        assert wit.t0 == pytest.approx(0.5, abs=1e-8)
        assert wit.min_value == pytest.approx(0.0, abs=1e-9)

    def test_a_flat_m_takes_the_first_maximum(self):
        # phi1 = phi2: m(t) = 0 at every t, and the smallest t0 wins.
        phi = GeneralizedQuadratic.iso(1, 1.0)
        wit = intersection_property(phi, phi, 0.0)
        assert (wit.t0, wit.min_value) == (0.0, 0.0)
        # a(t) = 2t - 1: m = -inf below t = 1/2 and 0 from there on, so the
        # first maximum is the root of a(t).
        wit = intersection_property(phi, GeneralizedQuadratic.iso(1, -1.0), 0.0)
        assert (wit.t0, wit.min_value) == (0.5, 0.0)

    def test_a_non_isotropic_member_is_rejected(self):
        phi1 = GeneralizedQuadratic(2, [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 0.0)
        phi2 = GeneralizedQuadratic.iso(2, 1.0)
        for pair in ((phi1, phi2), (phi2, phi1)):
            with pytest.raises(InvariantViolation, match="class members"):
                intersection_property(*pair, 0.0)

    def test_one_evaluation_on_at_most_four_candidates(self, monkeypatch):
        calls = []

        def spy(phi1, phi2, ts):
            calls.append(len(ts))
            return combo_min(phi1, phi2, ts)

        combo_min = abconv.lagrange._combo_min_many
        monkeypatch.setattr(abconv.lagrange, "_combo_min_many", spy)
        pairs = [(GeneralizedQuadratic.iso(2, a1, [1.0, -2.0], 0.3),
                  GeneralizedQuadratic.iso(2, a2, [-1.0, 0.5], -0.2))
                 for a1 in (-1.0, 0.0, 1.0) for a2 in (-0.5, 0.0, 2.0)]
        for phi1, phi2 in pairs:
            intersection_property(phi1, phi2, -1.0)
        assert len(calls) == len(pairs) and max(calls) <= 4

    def test_members_near_the_float_range_warn_nothing(self):
        phi1 = GeneralizedQuadratic.iso(1, 1e300, [1e300], 1e300)
        phi2 = GeneralizedQuadratic.iso(1, -1e300, [-1e300], -1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wit = intersection_property(phi1, phi2, 0.0)
        assert wit.t0 == 0.5 and wit.min_value == 0.0

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
        # The search accepts max m >= alpha - TOL; holds reads the same rule.
        phi = GeneralizedQuadratic.iso(1, 1.0)
        wit = intersection_property(phi, phi, 5e-10)
        assert wit is not None and wit.holds

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

    def test_1_to_3_d_search_agrees_with_independent_oracles(self, rng):
        # Curvatures of either sign, so a(t) often changes sign on [0, 1];
        # alpha sits 0.05-1 off the best level.  The witness is m's maximum,
        # so it is at least the exact m at every point of a fine t grid.  The
        # definition-level brute force runs where its z mesh stays fine: in
        # 1-D and 2-D.
        ts = np.linspace(0.0, 1.0, 20_001)

        def draw(n):
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
            u = rng.uniform(-2.0, 2.0, size=n)
            c = float(rng.uniform(-1.0, 1.0))
            return GeneralizedQuadratic.iso(n, a, u, c), (a * np.eye(n), u, c)

        witnesses = 0
        for k in range(18):
            n = 1 + k % 3
            phi1, p1 = draw(n)
            phi2, p2 = draw(n)
            peak = float(np.max(oracles.iso_combo_min(p1, p2, ts)))
            offset = rng.uniform(0.05, 1.0)
            if peak == -INF:
                alpha = -20.0
            else:
                alpha = peak - offset if k % 2 == 0 else peak + offset
            wit = intersection_property(phi1, phi2, alpha)
            if n < 3:
                brute = oracles.intersection_brute(p1, p2, alpha, [-10.0] * n, [10.0] * n,
                                                   z_points=2601, t_points=201)
                assert (wit is not None) == brute, (k, alpha)
            if wit is not None:
                witnesses += 1
                assert wit.min_value >= peak - 1e-12, (k, wit, peak)
                exact = oracles.iso_combo_min(p1, p2, wit.t0)
                assert exact >= alpha - 1e-9
                assert wit.min_value == pytest.approx(exact, abs=1e-9)
        assert 0 < witnesses < 18


class TestValueFunction:
    @staticmethod
    def assert_v0_is_the_primal(inst):
        """V(0) takes the shifted-g path, the primal the composite one:
        the two must still give the same bits."""
        v0 = value_function(LagrangianContext(inst), np.zeros(inst.L.out_dim))
        assert np.float64(v0).tobytes() == np.float64(primal_value(inst).value).tobytes()

    def test_zero_perturbation_is_the_primal_bit_for_bit(self):
        for name in catalog_names():
            self.assert_v0_is_the_primal(catalog_instance(name))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2)])
    def test_zero_perturbation_on_fuzz_instances(self, n, m, fuzz_instance):
        for seed in (11, 12):
            self.assert_v0_is_the_primal(fuzz_instance(n, m, seed))

    def test_zero_perturbation_on_the_gridbox_pool(self):
        for inst in workload("gridbox")(abconv, 1).pool:
            self.assert_v0_is_the_primal(inst)

    def test_frozen_shift(self, inst47, make_ctx):
        # V(1) = min (x+1)^2 + 4(x+1)^2 = 0
        assert value_function(make_ctx(inst47), [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, inst47, make_ctx):
        with pytest.raises(InvariantViolation):
            value_function(make_ctx(inst47), [0.0, 0.0])


def drop_instance():
    """f = -100 x on a fine window, g = indicator-like (0 on y <= 0):
    V(y) = -100 * min(1, -y) for feasibility x <= -y, so V(0) = 0 but V
    jumps down by 100*r for perturbations of size r."""
    f = Objective.quadratic(GeneralizedQuadratic.affine([-100.0]))
    g = Objective.quadratic(
        GeneralizedQuadratic.zero(1), domain_box=Box([-INF], [0.0])
    )
    return build(
        f, g, x_search=GridSpec(Box([-1.0], [1.0]), points_per_axis=40001,
                                refine_rounds=0)
    )


class TestLscProbe:
    def test_true_on_a_well_behaved_instance(self, inst47, make_ctx):
        assert lsc_probe_at_zero(make_ctx(inst47))

    def test_false_when_the_value_function_drops_at_zero(self, make_ctx):
        assert not lsc_probe_at_zero(make_ctx(drop_instance()))

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


def lsc_outcome(probe, ctx):
    """The probe's verdict, or "raises" when V(0) is not finite."""
    try:
        return probe(ctx)
    except InvariantViolation:
        return "raises"


class TestBatchedLscProbe:
    """The batched V(y) samples against the per-sample loop of
    ``oracles.lsc_probe_dense``."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_verdicts_and_samples(self, name, make_ctx):
        ctx = make_ctx(catalog_instance(name))
        assert lsc_probe_at_zero(ctx) == oracles.lsc_probe_dense(ctx)
        Y = np.array(oracles.lsc_samples(ctx))
        dense = np.array([value_function(ctx, y) for y in Y])
        np.testing.assert_allclose(_value_function_many(ctx, Y), dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)])
    def test_random_exact_instances(self, n, m, fuzz_instance, make_ctx):
        for seed in range(4):
            ctx = make_ctx(fuzz_instance(n, m, 50 + seed))
            assert lsc_outcome(lsc_probe_at_zero, ctx) == lsc_outcome(oracles.lsc_probe_dense, ctx)
            Y = np.array(oracles.lsc_samples(ctx))
            dense = np.array([value_function(ctx, y) for y in Y])
            batch = _value_function_many(ctx, Y)
            assert np.array_equal(np.isfinite(batch), np.isfinite(dense))
            assert np.array_equal(batch[~np.isfinite(dense)], dense[~np.isfinite(dense)])
            np.testing.assert_allclose(batch, dense, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,m,kind", BOXED)
    def test_grid_samples_equal_value_function_bit_for_bit(self, n, m, kind, make_ctx):
        for seed in (3, 4):
            ctx = make_ctx(boxed_instance(n, m, kind, seed))
            assert lsc_outcome(lsc_probe_at_zero, ctx) == lsc_outcome(oracles.lsc_probe_dense, ctx)
            Y = np.array(oracles.lsc_samples(ctx))
            dense = np.array([value_function(ctx, y) for y in Y])
            assert _value_function_many(ctx, Y).tobytes() == dense.tobytes()

    def test_the_drop_at_zero_on_a_fine_mesh(self, make_ctx):
        # 40001 mesh points, 5e-5 apart: finer than the probe radius 1e-4.
        ctx = make_ctx(drop_instance())
        assert lsc_probe_at_zero(ctx) is False
        assert oracles.lsc_probe_dense(ctx) is False
        Y = np.array(oracles.lsc_samples(ctx))
        dense = np.array([value_function(ctx, y) for y in Y])
        assert _value_function_many(ctx, Y).tobytes() == dense.tobytes()


def touching_instance(n, m, seed, kind=None):
    """f = |x - a|^2 - 1 and g = |y - La|^2 with a random L: the zero member
    at level -1 satisfies every support-point condition at x0 = a (and
    within tol near it).  kind boxes f or g, or makes g a callable."""
    rng = np.random.default_rng(seed)
    L = random_instance(RandomSpec(n=n, m=m), seed).L
    a = rng.uniform(-2.0, 2.0, n)
    b = L.apply(a)
    f = Objective.quadratic(GeneralizedQuadratic.iso(n, 1.0, -2.0 * a, a @ a - 1.0))
    gq = GeneralizedQuadratic.iso(m, 1.0, -2.0 * b, b @ b)
    g = Objective.quadratic(gq)
    if kind == "f":
        f = Objective.quadratic(f.quad, domain_box=Box.cube(n, -3.0, 3.0))
    elif kind == "g":
        g = Objective.quadratic(gq, domain_box=Box.cube(m, -8.0, 8.0))
    elif kind == "callable":
        g = Objective.from_callable(m, lambda y: float(gq(np.asarray(y, dtype=float))))
    inst = ProblemInstance.build(
        f=f, g=g, L=L, phi=Family(n, CurvatureSpec.any()),
        psi=Family(m, CurvatureSpec.zero()),
        psi_search=FamilySearchGrid.default(
            Family(m, CurvatureSpec.zero()), slope_points={1: 41, 2: 9, 3: 5}[m]),
        x_search=GridSpec(Box.cube(n), {1: 51, 2: 21, 3: 9}[n], 2),
        y_search=GridSpec(Box.cube(m), {1: 41, 2: 11, 3: 7}[m], 2),
    )
    jitter = rng.normal(size=(6, n))
    X0 = np.concatenate([a[None], a + 1e-7 * jitter, a + 1e-2 * jitter,
                         rng.uniform(-3.0, 3.0, (6, n))])
    return inst, X0


def assert_scan_matches_dense(ctx, psi, X0, alpha):
    """Every verdict and condition flag of the scan equals the dense
    per-point check, and every detail agrees to rounding.  Returns how
    many candidates hold."""
    scan = support_point_scan(ctx, psi, X0, alpha)
    for i, x0 in enumerate(X0):
        dense = oracles.support_point_dense(ctx, psi, x0, alpha)
        row = scan.check(i)
        assert (row.holds, row.conditions) == (dense.holds, dense.conditions), (i, x0)
        assert list(row.details) == list(dense.details)
        for key, value in dense.details.items():
            assert row.details[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
    return int(np.count_nonzero(scan.holds))


def table_members(ctx, rng, count):
    """Random members with a finite g*, lowered by g* so that each
    supports g on the member grid."""
    inst, table = ctx.instance, ctx.gstar_table()
    slopes = inst.psi_search.slopes()
    finite = np.argwhere(np.isfinite(table))
    for k in rng.choice(len(finite), size=min(count, len(finite)), replace=False):
        i, j = finite[k]
        member = GeneralizedQuadratic.iso(inst.L.out_dim, inst.psi_search.curvatures[i], slopes[j])
        yield GeneralizedQuadratic(member.dim, member.A, member.u, member.c - table[i, j])


def assert_members_match(ctx, rng):
    inst = ctx.instance
    X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
    X0 = np.concatenate([X[rng.choice(len(X), 14, replace=False)],
                         rng.uniform(-3.0, 3.0, (6, inst.L.in_dim))])
    for psi in table_members(ctx, rng, 2):
        level = oracles.support_point_dense(ctx, psi, X0[0], 0.0).details["inf_f_plus_psi"]
        for alpha in ((level, level - 0.5) if np.isfinite(level) else (0.0, -5.0)):
            assert_scan_matches_dense(ctx, psi, X0, alpha)


class TestSupportPointScan:
    @pytest.mark.parametrize("b", [1.0, 0.0])
    def test_ex611_members(self, b, inst611, make_ctx):
        ctx = make_ctx(inst611)
        X = inst611.x_search.box.mesh(inst611.x_search.points_per_axis)
        member = GeneralizedQuadratic.affine([2.0], b)
        assert assert_scan_matches_dense(ctx, member, X[::2], b - 41.0 / 4.0) == 0

    @pytest.mark.parametrize("alpha", [-9.25, -9.5])
    def test_criterion_06_candidates(self, alpha, inst611, make_ctx):
        ctx = make_ctx(inst611)
        X0 = np.concatenate([np.linspace(-10.0, 10.0, 201), [-0.5, 0.5, 1.5]])[:, None]
        psi = GeneralizedQuadratic.affine([2.0], 1.0)
        assert assert_scan_matches_dense(ctx, psi, X0, alpha) == 0

    @pytest.mark.parametrize("n,m", FUZZ_DIMS)
    def test_random_exact_instances(self, n, m, fuzz_instance, make_ctx):
        rng = np.random.default_rng(10 * n + m)
        assert_members_match(make_ctx(fuzz_instance(n, m, 70 + 10 * n + m)), rng)

    @pytest.mark.parametrize("n,m,kind", BOXED)
    def test_boxed_instances(self, n, m, kind, make_ctx):
        rng = np.random.default_rng(10 * n + m)
        assert_members_match(make_ctx(boxed_instance(n, m, kind, 5)), rng)

    @pytest.mark.parametrize("kind", [None, "f", "g", "callable"])
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_candidates_that_hold(self, n, m, kind, make_ctx):
        inst, X0 = touching_instance(n, m, 10 * n + m, kind)
        ctx = make_ctx(inst)
        zero = GeneralizedQuadratic.zero(m)
        assert assert_scan_matches_dense(ctx, zero, X0, -1.0) >= 7
        assert assert_scan_matches_dense(ctx, zero, X0, 0.5) == 0  # above psi = 0

    def test_the_one_point_check_is_the_scan_row(self, make_ctx):
        # Equal bit for bit: a lone base point is padded to two rows for the
        # BLAS products, and quadratic_form rounds every row alike at any
        # batch size.  The boxed instances' random f and psi have
        # non-isotropic matrices, so their x.A x terms mix coordinates.
        rng = np.random.default_rng(12)
        inst, X0 = touching_instance(2, 1, 3)
        cases = [(inst, X0, GeneralizedQuadratic.zero(1), -1.0)]
        for n, m in ((2, 1), (2, 2)):
            for kind in ("f", "g", "callable"):
                for seed in (1, 2, 3):
                    inst = boxed_instance(n, m, kind, seed)
                    A = rng.normal(size=(m, m))
                    psi = GeneralizedQuadratic(m, A + A.T, rng.normal(size=m), 0.5)
                    cases.append((inst, rng.uniform(-2.0, 2.0, (25, n)), psi, 0.0))
        for inst, X0, psi, alpha in cases:
            ctx = make_ctx(inst)
            scan = support_point_scan(ctx, psi, X0, alpha)
            for i, x0 in enumerate(X0):
                assert support_point_zero_gap_check(ctx, psi, x0, alpha) == scan.check(i)

    def test_the_support_set_alone_certifies(self, make_ctx):
        # g = 4 - y^2 on [-2, 2] is concave: its affine-class envelope is 0,
        # so at x0 = 0 the point lies in the support set while g(0) = 4 > 0.
        f = quad_obj(1, 1.0, [0.0], -1.0)
        g = quad_obj(1, -1.0, [0.0], 4.0, box=Box([-2.0], [2.0]))
        ctx = make_ctx(build(f, g, phi_kind=CurvatureSpec.any()))
        X0 = np.array([[0.0], [1e-6], [0.5], [2.0], [-2.0]])
        zero = GeneralizedQuadratic.zero(1)
        assert assert_scan_matches_dense(ctx, zero, X0, -1.0) == 2
        scan = support_point_scan(ctx, zero, X0, -1.0)
        assert scan.holds.tolist() == [True, True, False, False, False]
        assert not scan.conditions["g_nonpositive_at_point"][:2].any()

    def test_rejects_base_points_of_the_wrong_dimension(self, inst611, make_ctx):
        with pytest.raises(InvariantViolation):
            support_point_scan(make_ctx(inst611), GeneralizedQuadratic.zero(1),
                               np.zeros((3, 2)), -9.25)
        with pytest.raises(InvariantViolation):
            support_point_zero_gap_check(make_ctx(inst611), GeneralizedQuadratic.zero(1),
                                         [0.0, 0.0], -9.25)
