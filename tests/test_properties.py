"""Property-based invariants: inequalities that must hold for ALL inputs."""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abconv import (
    Box,
    CurvatureSpec,
    Family,
    FamilySearchGrid,
    GeneralizedQuadratic,
    GridSpec,
    LagrangianContext,
    LinearMap,
    Objective,
    biconjugate_at,
    catalog_instance,
    combine,
    conjugate_closed_form,
    conjugate_grid,
    dumps,
    eps_subdiff_contains,
    instance_from_dict,
    instance_to_dict,
    lagrangian_value,
    pullback,
)
from abconv.config import TOL, VALUE_TOL, values_agree

# "suite" (the default) is derandomized, so every run checks the same examples;
# HYPOTHESIS_PROFILE=explore draws fresh random examples, and more of them.
settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.register_profile("explore", deadline=None, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

finite = dict(allow_nan=False, allow_infinity=False)
CTX47 = LagrangianContext(catalog_instance("ex4.7"))


def iso1(a, u, c):
    return GeneralizedQuadratic.iso(1, a, [u], c)


convex_f = st.builds(
    iso1,
    st.floats(0.3, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(-2.0, 2.0),
)
any_f = st.builds(
    iso1,
    st.floats(-1.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(-2.0, 2.0),
)
concave_member = st.builds(
    iso1,
    st.floats(-2.0, 0.0),
    st.floats(-3.0, 3.0),
    st.floats(-2.0, 2.0),
)
points = st.floats(-3.0, 3.0)


class TestConjugateInequalities:
    @given(f=convex_f, phi=concave_member, x=points)
    def test_fenchel_young(self, f, phi, x):
        fstar = conjugate_closed_form(Objective.quadratic(f), phi)
        assert np.isfinite(fstar.value)
        lhs = f(np.array([x])) + fstar.value
        assert lhs >= phi(np.array([x])) - 1e-9

    @given(f=convex_f, x=points)
    def test_fenchel_young_is_tight_at_the_gradient_member(self, f, x):
        slope = float(2.0 * f.A[0, 0] * x + f.u[0])
        tangent = iso1(0.0, slope, 0.0)
        assert eps_subdiff_contains(Objective.quadratic(f), tangent, [x], eps=0.0)

    @given(f=any_f, x=points)
    def test_biconjugate_never_exceeds_f(self, f, x):
        search = FamilySearchGrid(
            Family(1, CurvatureSpec.nonpos()),
            Box([-6.0], [6.0]),
            41,
            (0.0, -0.5),
        )
        obj = Objective.quadratic(f)
        assert biconjugate_at(obj, [x], search) <= obj.value([x]) + 1e-9

    @given(f=convex_f, x=points)
    def test_biconjugate_recovers_convex_f_at_grid_tangents(self, f, x):
        # place the tangent slope on the grid: then the envelope is exact
        slope = float(2.0 * f.A[0, 0] * x + f.u[0])
        search = FamilySearchGrid(
            Family(1, CurvatureSpec.zero()),
            Box([slope - 1.0], [slope + 1.0]),
            3,
            (0.0,),
        )
        obj = Objective.quadratic(f)
        assert biconjugate_at(obj, [x], search) == pytest.approx(
            obj.value([x]), abs=1e-8
        )

    @given(f=convex_f, phi=concave_member, x=points,
           eps=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_eps_subdifferentials_are_nested(self, f, phi, x, eps):
        lo, hi = sorted(eps)
        obj = Objective.quadratic(f)
        inner = eps_subdiff_contains(obj, phi, [x], lo)
        outer = eps_subdiff_contains(obj, phi, [x], hi)
        assert outer or not inner

    @given(f=convex_f, phi=concave_member)
    def test_grid_conjugate_never_exceeds_closed(self, f, phi):
        obj = Objective.quadratic(f)
        closed = conjugate_closed_form(obj, phi).value
        grid = conjugate_grid(
            obj, phi, GridSpec(Box([-10.0], [10.0]), points_per_axis=201, refine_rounds=2),
        ).value
        assert grid <= closed + 1e-9


class TestQuadraticAlgebra:
    @given(
        data=st.tuples(
            st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),   # s1, s2
            st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),   # a1, a2
            st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),   # u1, u2
            st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),   # c1, c2
        ),
        x=points,
    )
    def test_combine_evaluates_linearly(self, data, x):
        s1, s2, a1, a2, u1, u2, c1, c2 = data
        q1, q2 = iso1(a1, u1, c1), iso1(a2, u2, c2)
        xv = np.array([x])
        expected = s1 * q1(xv) + s2 * q2(xv)
        assert combine(s1, q1, s2, q2)(xv) == pytest.approx(expected, abs=1e-9)

    @given(
        q=st.builds(iso1, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                    st.floats(-2.0, 2.0)),
        l_entries=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        x=st.tuples(points, points),
        shift=st.floats(-2.0, 2.0),
    )
    def test_pullback_evaluates_through_the_map(self, q, l_entries, x, shift):
        L = LinearMap(np.array([list(l_entries)]))
        xv = np.array(x)
        Lx = L.matrix @ xv
        assert pullback(q, L)(xv) == pytest.approx(q(Lx), abs=1e-9)
        assert pullback(q.shifted([shift]), L)(xv) == pytest.approx(
            q(Lx + shift), abs=1e-9
        )

    @given(a=st.floats(-3.0, 3.0), u=st.floats(-3.0, 3.0), c=st.floats(-2.0, 2.0))
    def test_family_membership_matches_curvature_sign(self, a, u, c):
        fam = Family(1, CurvatureSpec.nonpos())  # constants allowed
        assert fam.contains(iso1(a, u, c)) == (a <= 1e-9)

    @given(a=st.floats(-3.0, 0.0), u=st.floats(-3.0, 3.0), c=st.floats(-2.0, 2.0))
    def test_constant_free_family_rejects_offsets(self, a, u, c):
        fam = Family(1, CurvatureSpec.nonpos(), includes_constants=False)
        assert fam.contains(iso1(a, u, c)) == (abs(c) <= 1e-9)


class TestLagrangianShape:
    @given(u1=st.floats(-8.0, 8.0), u2=st.floats(-8.0, 8.0), x=points)
    def test_concave_in_the_dual_member(self, u1, u2, x):
        psi1, psi2 = iso1(0.0, u1, 0.0), iso1(0.0, u2, 0.0)
        mid = combine(0.5, psi1, 0.5, psi2)
        left = lagrangian_value(CTX47, [x], psi1)
        right = lagrangian_value(CTX47, [x], psi2)
        middle = lagrangian_value(CTX47, [x], mid)
        assert middle >= 0.5 * (left + right) - 1e-9

    @given(u=st.floats(-8.0, 8.0), x=points)
    def test_never_exceeds_the_objective(self, u, x):
        # weak duality pointwise: L(x, psi) <= f(x) + g(Lx)
        psi = iso1(0.0, u, 0.0)
        inst = CTX47.instance
        total = inst.f.value([x]) + inst.g.value(inst.L.matrix @ np.array([x]))
        assert lagrangian_value(CTX47, [x], psi) <= total + 1e-9


class TestSerializationRoundTrip:
    @given(
        vals=st.tuples(
            st.floats(0.1, 2.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
            st.floats(0.1, 2.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
        ),
        x=points,
    )
    @example(vals=(1.0, -0.0, -0.0, 1.0, -0.0, -0.0), x=0.0)
    def test_instances_survive_a_round_trip(self, vals, x):
        fa, fu, fc, ga, gu, gc = vals
        from abconv import ProblemInstance

        inst = ProblemInstance.build(
            f=Objective.quadratic(iso1(fa, fu, fc)),
            g=Objective.quadratic(iso1(ga, gu, gc)),
            L=LinearMap.identity(1),
            phi=Family(1, CurvatureSpec.nonpos()),
            psi=Family(1, CurvatureSpec.zero()),
        )
        data = instance_to_dict(inst)
        text = dumps(data)
        back = instance_from_dict(json.loads(text))
        assert dumps(instance_to_dict(back)) == text
        assert back.f.value([x]) == inst.f.value([x])
        assert back.g.value([x]) == inst.g.value([x])

    @given(v=st.floats(**finite, allow_subnormal=False))
    def test_float_rendering_round_trips_exactly(self, v):
        assert json.loads(dumps(v)) == v


class TestValuesAgree:
    """``values_agree`` against the four hand-written rules it replaced, on
    every pair of infinite, NaN and finite values."""

    VALUES = (-np.inf, np.inf, np.nan, -3.0, 0.0, 1.0, 1.0 + 5e-7, 1.0 + 2e-6)

    def test_matches_the_rules_it_replaced(self):
        for a, b in itertools.product(self.VALUES, repeat=2):
            both = np.isfinite(a) and np.isfinite(b)
            # convexification_preserves_value, lp = a and primal = b
            assert values_agree(a, b) == (abs(a - b) <= VALUE_TOL if both else a == b)
            # _attains_primal, value = a and primal = b; it keeps its finiteness test
            assert (np.isfinite(a) and values_agree(a, b)) == (both and abs(a - b) <= VALUE_TOL)
            # is_phi_convex_at, biconjugate = a and f(x) = b, which is finite there
            if np.isfinite(b):
                assert values_agree(a, b) == (abs(a - b) <= VALUE_TOL)
            # catalog._value_row, computed = a and expected = b, at both tolerances
            for tol in (VALUE_TOL, TOL):
                old = a == b if b in (np.inf, -np.inf) else np.isfinite(a) and abs(a - b) <= tol
                assert values_agree(a, b, tol) == old
                assert type(values_agree(a, b, tol)) is bool
