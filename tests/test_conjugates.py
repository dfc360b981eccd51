"""Conjugate engines, class search grids, biconjugates, eps-subdifferentials.

Frozen values are hand-derived for ``f(x) = (x+1)^2`` and friends:
``sup_x [a*x^2 + b*x - f(x)] = (b-2)^2 / (4*(1-a)) - 1`` whenever ``a < 1``.
"""

import numpy as np
import pytest

import oracles
from abconv.conjugates import _biconjugate_argmax
from abconv import (
    Box,
    ConjugateValue,
    FamilySearchGrid,
    Family,
    CurvatureSpec,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    InvariantViolation,
    Objective,
    biconjugate_at,
    biconjugate_many,
    conjugate_closed_form,
    conjugate_grid,
    conjugate_value,
    dom_conjugate_probe,
    eps_subdiff_contains,
    family_conjugate_table,
    is_phi_convex_at,
    minimize_quadratic,
)
from conftest import FUZZ_DIMS

F_SHIFTED_SQUARE = GeneralizedQuadratic.iso(1, 1.0, [2.0], 1.0)  # (x+1)^2


def member(a: float, b: float) -> GeneralizedQuadratic:
    return GeneralizedQuadratic.iso(1, a, [b])


class TestClosedForm:
    def test_frozen_value_strictly_concave_difference(self):
        res = conjugate_closed_form(F_SHIFTED_SQUARE, member(-1.0, 0.0))
        assert res.engine == "closed" and res.note == ""
        assert res.value == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(res.maximizer, [-0.5], atol=1e-12)

    def test_frozen_formula_on_a_sweep(self):
        for a in (-3.0, -1.0, 0.0, 0.5):
            for b in (-2.0, 0.0, 1.0, 4.0):
                expected = (b - 2.0) ** 2 / (4.0 * (1.0 - a)) - 1.0
                res = conjugate_closed_form(F_SHIFTED_SQUARE, member(a, b))
                assert res.value == pytest.approx(expected, abs=1e-10)

    def test_kernel_direction_with_matched_slope(self):
        res = conjugate_closed_form(F_SHIFTED_SQUARE, member(1.0, 2.0))
        assert res.value == pytest.approx(-1.0)
        np.testing.assert_allclose(res.maximizer, [0.0])

    def test_unbounded_direction(self):
        res = conjugate_closed_form(F_SHIFTED_SQUARE, member(2.0, 0.0))
        assert res.value == INF and res.maximizer is None
        assert res.note == "unbounded-direction"

    def test_linear_escape(self):
        res = conjugate_closed_form(F_SHIFTED_SQUARE, member(1.0, 3.0))
        assert res.value == INF and res.note == "linear-escape"

    def test_two_dimensional_frozen_value(self):
        f = GeneralizedQuadratic(2, [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 0.0)
        phi = GeneralizedQuadratic.affine([2.0, 4.0])
        res = conjugate_closed_form(f, phi)
        assert res.value == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(res.maximizer, [1.0, 1.0], atol=1e-12)

    def test_matches_independent_brute_force(self, rng):
        for _ in range(25):
            fa = float(rng.uniform(0.5, 2.0))
            fu = float(rng.uniform(-2.0, 2.0))
            fc = float(rng.uniform(-1.0, 1.0))
            pa = float(rng.uniform(-2.0, 0.0))
            pu = float(rng.uniform(-2.0, 2.0))
            pc = float(rng.uniform(-1.0, 1.0))
            res = conjugate_closed_form(
                GeneralizedQuadratic.iso(1, fa, [fu], fc),
                GeneralizedQuadratic.iso(1, pa, [pu], pc),
            )
            brute = oracles.conjugate_brute(
                [[fa]], [fu], fc, [[pa]], [pu], pc, -20.0, 20.0
            )
            assert res.value == pytest.approx(brute, rel=1e-6, abs=1e-6)

    def test_accepts_objective_wrapper(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        assert conjugate_closed_form(obj, member(-1.0, 0.0)).value == pytest.approx(-0.5)

    def test_rejects_boxed_objective(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE, domain_box=Box([-1.0], [1.0]))
        with pytest.raises(InvariantViolation):
            conjugate_closed_form(obj, member(0.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            conjugate_closed_form(F_SHIFTED_SQUARE, GeneralizedQuadratic.zero(2))


class TestMinimizeQuadratic:
    def test_frozen_minimum(self):
        q = GeneralizedQuadratic.iso(1, 1.0, [-6.0], 11.0)  # (x-3)^2 + 2
        value, argmin = minimize_quadratic(q)
        assert value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(argmin, [3.0], atol=1e-12)

    def test_unbounded(self):
        value, argmin = minimize_quadratic(GeneralizedQuadratic.iso(1, -1.0))
        assert value == -INF and argmin is None

    def test_oracle_cross_check(self, rng):
        for _ in range(20):
            a = float(rng.uniform(0.2, 2.0))
            b = float(rng.uniform(-3.0, 3.0))
            c = float(rng.uniform(-1.0, 1.0))
            value, _ = minimize_quadratic(GeneralizedQuadratic.iso(1, a, [b], c))
            assert value == pytest.approx(oracles.min_quad_1d(a, b, c), rel=1e-12)


class TestGridEngine:
    def test_grid_hits_exact_value_on_mesh(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        res = conjugate_grid(obj, member(-1.0, 0.0), GridSpec.cube(1))
        assert res.engine == "grid"
        assert res.value == pytest.approx(-0.5, abs=1e-9)

    def test_grid_never_exceeds_closed_form(self, rng):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        for _ in range(20):
            phi = member(float(rng.uniform(-2.0, 0.5)), float(rng.uniform(-4.0, 4.0)))
            closed = conjugate_closed_form(obj, phi).value
            grid = conjugate_grid(obj, phi, GridSpec.cube(1)).value
            assert grid <= closed + 1e-9

    def test_grid_respects_domain_box(self):
        obj = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([0.0], [2.0])
        )
        res = conjugate_grid(obj, GeneralizedQuadratic.affine([-1.0]), GridSpec.cube(1))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.maximizer, [0.0], atol=1e-12)

    def test_improper_window(self):
        obj = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([5.0], [6.0])
        )
        res = conjugate_grid(
            obj, GeneralizedQuadratic.zero(1), GridSpec.cube(1, -1.0, 1.0)
        )
        assert res.value == -INF and res.note == "improper-window"

    def test_refinement_tightens(self):
        # maximizer at x = 0.05/2... choose slope so argmax is off the coarse mesh
        obj = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        phi = GeneralizedQuadratic.affine([0.13])
        coarse = conjugate_grid(obj, phi, GridSpec(Box.cube(1), 31, 0)).value
        fine = conjugate_grid(obj, phi, GridSpec(Box.cube(1), 31, 4)).value
        exact = 0.13**2 / 4.0
        assert coarse <= fine <= exact + 1e-12
        assert fine == pytest.approx(exact, abs=1e-8)

    def test_gridspec_validation(self):
        with pytest.raises(InvariantViolation):
            GridSpec(Box([-INF], [0.0]))
        with pytest.raises(InvariantViolation):
            GridSpec(Box.cube(1), points_per_axis=2)
        with pytest.raises(InvariantViolation):
            GridSpec(Box.cube(1), refine_rounds=-1)


class TestDispatch:
    def test_auto_prefers_closed(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        assert conjugate_value(obj, member(-1.0, 0.0)).engine == "closed"

    def test_auto_falls_back_to_grid_for_boxes(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE, domain_box=Box([-2.0], [2.0]))
        assert conjugate_value(obj, member(-1.0, 0.0)).engine == "grid"

    def test_forced_grid(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        res = conjugate_value(obj, member(-1.0, 0.0), engine="grid")
        assert res.engine == "grid"
        assert res.value == pytest.approx(-0.5, abs=1e-9)

    def test_unknown_engine(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        with pytest.raises(InvariantViolation):
            conjugate_value(obj, member(0.0, 0.0), engine="symbolic")


class TestFamilySearchGrid:
    def test_default_sizes(self):
        grid1 = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        assert grid1.slopes().shape == (201, 1)
        assert grid1.curvatures == (0.0,)
        assert grid1.size == 201
        grid2 = FamilySearchGrid.default(Family(2, CurvatureSpec.nonpos()))
        assert grid2.slopes().shape == (41 * 41, 2)
        assert len(grid2.curvatures) == 21 and max(grid2.curvatures) == 0.0

    def test_member_and_zero_on_grid(self):
        grid = FamilySearchGrid.default(Family(1, CurvatureSpec.nonpos()))
        assert 0.0 in grid.curvatures
        assert any(abs(s[0]) == 0.0 for s in grid.slopes())
        m = grid.member(-1.0, [2.0])
        assert m(np.array([1.0])) == pytest.approx(1.0)

    def test_validation(self):
        fam = Family(1, CurvatureSpec.zero())
        with pytest.raises(InvariantViolation):
            FamilySearchGrid(fam, Box.cube(2), 5, (0.0,))
        with pytest.raises(InvariantViolation):
            FamilySearchGrid(fam, Box([-INF], [0.0]), 5, (0.0,))
        with pytest.raises(InvariantViolation):
            FamilySearchGrid(fam, Box.cube(1), 0, (0.0,))
        with pytest.raises(InvariantViolation):
            FamilySearchGrid(fam, Box.cube(1), 5, ())
        with pytest.raises(InvariantViolation):
            FamilySearchGrid(fam, Box.cube(1), 5, (-1.0,))  # not admissible for zero


class TestFamilyConjugateTable:
    def test_closed_rows_match_pointwise_conjugates(self):
        g = Objective.quadratic(GeneralizedQuadratic.iso(1, 4.0))  # 4 y^2
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        table = family_conjugate_table(g, search)
        assert table.shape == (1, 201)
        slopes = search.slopes()[:, 0]
        np.testing.assert_allclose(table[0], slopes**2 / 16.0, atol=1e-10)

    def test_infeasible_rows_are_plus_inf(self):
        g = Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0))  # concave
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        table = family_conjugate_table(g, search)
        assert np.all(table == INF)

    def test_grid_rows_match_grid_engine(self):
        f = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([-3.0], [3.0])
        )
        search = FamilySearchGrid(
            Family(1, CurvatureSpec.zero()), Box.cube(1, -2.0, 2.0), 5, (0.0,)
        )
        table = family_conjugate_table(f, search, grid=GridSpec.cube(1))
        slopes = search.slopes()[:, 0]
        np.testing.assert_allclose(table[0], slopes**2 / 4.0, atol=1e-10)


class TestBiconjugates:
    def test_biconjugate_recovers_convex_quadratic_on_mesh(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        # tangent slope 2x lies on the 0.1-step slope grid at these points
        for x in (0.0, 1.0, -2.5, 4.0):
            assert biconjugate_at(f, [x], search) == pytest.approx(x * x, abs=1e-10)

    def test_biconjugate_is_a_minorant(self, rng):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0, [1.0], 0.5))
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.nonpos()))
        X = rng.uniform(-8.0, 8.0, size=(100, 1))
        vals = biconjugate_many(f, X, search)
        fvals = f.values(X)
        assert np.all(vals <= fvals + 1e-9)

    def test_concave_member_function_is_its_own_biconjugate(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0))
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.nonpos()))
        assert -1.0 in search.curvatures
        assert biconjugate_at(f, [0.7], search) == pytest.approx(-0.49, abs=1e-10)

    def test_biconjugate_minus_inf_when_no_member_fits(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0))
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        assert biconjugate_at(f, [0.0], search) == -INF

    @pytest.mark.parametrize("n,m", FUZZ_DIMS)
    def test_matches_the_dense_reference_bit_for_bit(self, n, m, fuzz_instance):
        inst = fuzz_instance(n, m, seed=10 * n + m)
        search = inst.psi_search
        table = family_conjugate_table(inst.g, search)
        LX = inst.L.apply(inst.x_search.box.mesh(inst.x_search.points_per_axis))
        got = biconjugate_many(inst.g, LX, search, table)
        want = oracles.biconjugate_dense(LX, search.slopes(), search.curvatures, table)
        assert got.tobytes() == want.tobytes()

    def test_non_finite_entries_are_skipped_like_the_dense_reference(self, rng):
        search = FamilySearchGrid(
            Family(1, CurvatureSpec.nonpos()), Box.cube(1, -2.0, 2.0), 5, (-1.0, -0.5, 0.0)
        )
        table = rng.normal(size=(3, 5))
        table[0, 1] = -INF  # a grid-engine improper window
        table[1, [0, 3]] = INF  # a partly excluded row
        table[2] = INF
        X = rng.uniform(-3.0, 3.0, size=(40, 1))
        f = Objective.quadratic(F_SHIFTED_SQUARE)
        got = biconjugate_many(f, X, search, table)
        want = oracles.biconjugate_dense(X, search.slopes(), search.curvatures, table)
        assert got.tobytes() == want.tobytes()
        assert np.all(np.isfinite(got))

    def test_the_reported_winner_attains_the_value(self, rng):
        f = Objective.quadratic(F_SHIFTED_SQUARE)
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.nonpos()))
        table = family_conjugate_table(f, search)
        table[3, ::2] = INF
        X = rng.uniform(-8.0, 8.0, size=(300, 1))
        values, winner = _biconjugate_argmax(X, search, table)
        i, j = np.divmod(winner, len(search.slopes()))
        beta = np.asarray(search.curvatures)[i]
        phi = beta * X[:, 0] ** 2 + search.slopes()[j, 0] * X[:, 0]
        np.testing.assert_allclose(phi - table[i, j], values, rtol=1e-12, atol=1e-12)
        _, none = _biconjugate_argmax(X, search, np.full_like(table, INF))
        assert np.all(none == -1)

    def test_is_phi_convex_at(self):
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        convex = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        assert is_phi_convex_at(convex, [1.0], search)
        concave = Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0))
        assert not is_phi_convex_at(concave, [1.0], search)

    def test_is_phi_convex_outside_domain_raises(self):
        f = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([0.0], [1.0])
        )
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.zero()))
        with pytest.raises(InvariantViolation):
            is_phi_convex_at(f, [5.0], search)


class TestEpsSubdifferential:
    def test_frozen_threshold(self):
        # f = x^2 at x = 1 with slope 2.1: slack is exactly 0.0025
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        phi = GeneralizedQuadratic.affine([2.1])
        assert not eps_subdiff_contains(f, phi, [1.0], 0.002)
        assert eps_subdiff_contains(f, phi, [1.0], 0.003)

    def test_exact_tangent_needs_no_slack(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        assert eps_subdiff_contains(f, GeneralizedQuadratic.affine([2.0]), [1.0], 0.0)

    def test_infinite_conjugate_never_contains(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0))
        assert not eps_subdiff_contains(f, GeneralizedQuadratic.zero(1), [0.0], 1.0)

    def test_guards(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        with pytest.raises(InvariantViolation):
            eps_subdiff_contains(f, GeneralizedQuadratic.zero(1), [0.0], -1e-9)
        boxed = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([0.0], [1.0])
        )
        with pytest.raises(InvariantViolation):
            eps_subdiff_contains(boxed, GeneralizedQuadratic.zero(1), [5.0], 0.1)


class TestDomConjugateProbe:
    def _search(self):
        return FamilySearchGrid(
            Family(1, CurvatureSpec.zero()), Box.cube(1, -2.0, 2.0), 5, (0.0,)
        )

    def test_all_slopes_survive_with_rich_samples(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        samples = Box.cube(1).mesh(201)
        out = dom_conjugate_probe(f, self._search(), (0.0,), samples)
        assert sorted(s[0] for _, s in out) == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert all(beta == 0.0 for beta, _ in out)

    def test_far_samples_kill_all_members(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        out = dom_conjugate_probe(f, self._search(), (1.0,), np.array([[5.0]]))
        assert out == []

    def test_infeasible_samples_yield_empty(self):
        f = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([0.0], [1.0])
        )
        out = dom_conjugate_probe(f, self._search(), (0.5,), np.array([[5.0], [6.0]]))
        assert out == []

    def test_guards(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0))
        with pytest.raises(InvariantViolation):
            dom_conjugate_probe(f, self._search(), (), np.array([[0.0]]))
        with pytest.raises(InvariantViolation):
            dom_conjugate_probe(f, self._search(), (-0.1,), np.array([[0.0]]))


def test_conjugate_value_is_frozen_dataclass():
    res = ConjugateValue(1.0, None, "closed")
    with pytest.raises(AttributeError):
        res.value = 2.0
