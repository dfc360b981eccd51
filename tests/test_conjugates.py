"""Conjugate engines, class search grids, biconjugates, eps-subdifferentials.

Frozen values are hand-derived for ``f(x) = (x+1)^2`` and friends:
``sup_x [a*x^2 + b*x - f(x)] = (b-2)^2 / (4*(1-a)) - 1`` whenever ``a < 1``.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from abconv import conjugates
from abconv.conjugates import (
    MAX_MESH_POINTS,
    _biconjugate_argmax,
    _grid_sup_table,
    _group_windows,
    _quadratic_sup_many,
)
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
    RandomSpec,
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
    random_instance,
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

    def test_the_tolerance_scales_with_the_largest_eigenvalue_magnitude(self):
        # D = phi.A - f.A has the eigenvalues -1e6 and +-5e-4.  Within
        # TOL * 1e6 of zero, the second is a kernel direction: neither an
        # ascent direction nor a strictly concave one.
        phi = GeneralizedQuadratic.zero(2)
        for small, u, expected, note in ((-5e-4, [0.0, 0.0], 0.0, ""),
                                         (5e-4, [0.0, 1.0], INF, "linear-escape")):
            f = GeneralizedQuadratic(2, np.diag([1e6, small]), u, 0.0)
            res = conjugate_closed_form(f, phi)
            assert (res.value, res.note) == (expected, note)
            batched = _quadratic_sup_many((phi.A - f.A)[None], (phi.u - f.u)[None], 0.0)
            assert batched[0, 0] == res.value

    def test_the_kernel_tolerance_scales_with_the_largest_linear_term(self):
        # D = diag(-1, 0), v = (1e3, 1e-7): the kernel coefficient 1e-7 is
        # within TOL * max|v| = 1e-6 of zero, so the sup stays finite.
        phi = GeneralizedQuadratic(2, np.diag([-1.0, 0.0]), [1e3, 1e-7], 0.0)
        res = conjugate_closed_form(GeneralizedQuadratic.zero(2), phi)
        assert (res.value, res.note) == (250000.0, "")
        assert _quadratic_sup_many(phi.A[None], phi.u[None], 0.0)[0, 0] == 250000.0

    def test_an_eigenvalue_at_the_tolerance_is_no_ascent_direction(self):
        # w = 1e-9 = TOL * max(1, |w|): a kernel direction, not an ascent one.
        phi = GeneralizedQuadratic.iso(1, 1e-9)
        res = conjugate_closed_form(GeneralizedQuadratic.zero(1), phi)
        assert (res.value, res.note) == (0.0, "")
        assert _quadratic_sup_many(phi.A[None], np.zeros((1, 1)), 0.0)[0, 0] == 0.0

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
        res = conjugate_grid(obj, member(-1.0, 0.0), GridSpec(Box.cube(1), 201))
        assert res.engine == "grid"
        assert res.value == pytest.approx(-0.5, abs=1e-9)

    def test_grid_never_exceeds_closed_form(self, rng):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        for _ in range(20):
            phi = member(float(rng.uniform(-2.0, 0.5)), float(rng.uniform(-4.0, 4.0)))
            closed = conjugate_closed_form(obj, phi).value
            grid = conjugate_grid(obj, phi, GridSpec(Box.cube(1), 201)).value
            assert grid <= closed + 1e-9

    def test_grid_respects_domain_box(self):
        obj = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([0.0], [2.0])
        )
        res = conjugate_grid(obj, GeneralizedQuadratic.affine([-1.0]), GridSpec(Box.cube(1), 201))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.maximizer, [0.0], atol=1e-12)

    def test_improper_window(self):
        obj = Objective.quadratic(
            GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([5.0], [6.0])
        )
        res = conjugate_grid(
            obj, GeneralizedQuadratic.zero(1), GridSpec(Box.cube(1, -1.0, 1.0), 201)
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

    def test_mesh_is_shared_and_read_only(self):
        grid = GridSpec(Box([-1.0, 0.0], [1.0, 2.0]), 5)
        X = grid.mesh()
        assert X.tobytes() == grid.box.mesh(5).tobytes()
        assert GridSpec(Box([-1.0, 0.0], [1.0, 2.0]), 5, 0).mesh() is X
        assert not X.flags.writeable

    def test_meshes_over_the_cap_are_rejected_before_meshing(self):
        fam = Family(3, CurvatureSpec.zero())
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation, match="exceeds"):
                GridSpec(Box.cube(3), 10**6)
            with pytest.raises(InvariantViolation, match="exceeds"):
                FamilySearchGrid(fam, Box.cube(3), 10**6, (0.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the cap itself is allowed
        assert GridSpec(Box.cube(3), 100).points_per_axis ** 3 == MAX_MESH_POINTS

    def test_default_mesh(self):
        for dim, points in ((1, 201), (2, 61), (3, 21), (4, 9)):
            grid = GridSpec.default(dim)
            assert (grid.points_per_axis, grid.refine_rounds) == (points, 2)
            assert grid.box.lower.tolist() == [-10.0] * dim
            assert grid.box.upper.tolist() == [10.0] * dim


class TestDispatch:
    def test_auto_prefers_closed(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        assert conjugate_value(obj, member(-1.0, 0.0)).engine == "closed"

    def test_auto_falls_back_to_grid_for_boxes(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE, domain_box=Box([-2.0], [2.0]))
        assert conjugate_value(obj, member(-1.0, 0.0)).engine == "grid"

    def test_forced_grid(self):
        obj = Objective.quadratic(F_SHIFTED_SQUARE)
        res = conjugate_grid(obj, member(-1.0, 0.0), GridSpec.default(1))
        assert res.engine == "grid"
        assert res.value == pytest.approx(-0.5, abs=1e-9)


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
        m = GeneralizedQuadratic.iso(1, -1.0, [2.0])
        assert m(np.array([1.0])) == pytest.approx(1.0)

    def test_member_at_follows_the_table_layout(self):
        f = Objective.quadratic(GeneralizedQuadratic(2, [[1.0, 0.2], [0.2, 0.5]], [1.0, -2.0], 0.3))
        search = FamilySearchGrid(
            Family(2, CurvatureSpec.nonpos()), Box([-1.0, 0.0], [1.0, 3.0]), 3, (-2.0, -0.5))
        table = family_conjugate_table(f, search)
        assert search.size == table.size == 18
        for k in range(search.size):
            psi = search.member_at(k)
            assert psi.A[0, 0] == search.curvatures[k // 9]
            assert psi.u.tobytes() == search.slopes()[k % 9].tobytes()
            assert table.flat[k] == pytest.approx(conjugate_closed_form(f, psi).value, rel=1e-12)

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
        table = family_conjugate_table(f, search, grid=GridSpec(Box.cube(1), 201))
        slopes = search.slopes()[:, 0]
        np.testing.assert_allclose(table[0], slopes**2 / 4.0, atol=1e-10)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _boxed_g(m: int, callable_g: bool, seed: int) -> Objective:
    """A random weakly convex quadratic on a random box around the origin,
    as a quadratic or through an opaque callable."""
    rng = np.random.default_rng(seed)
    q = random_instance(RandomSpec(n=1, m=m), seed).g.quad
    box = Box(-rng.uniform(0.5, 6.0, m), rng.uniform(0.5, 6.0, m))
    if callable_g:
        return Objective.from_callable(m, lambda y: float(q(y)), domain_box=box)
    return Objective.quadratic(q, domain_box=box)


def _plateau(x) -> float:
    """0 on [-0.95, 0.95], rising outside: phi = 0 ties along the plateau,
    and the first-index maximizer moves left as the mesh refines."""
    return max(0.0, abs(float(x[0])) - 0.95)


def _search(m: int, slope_points: int) -> FamilySearchGrid:
    return FamilySearchGrid.default(
        Family(m, CurvatureSpec.nonpos()), slope_points=slope_points,
        curvature_points=5)


class TestGridTable:
    """The batched grid engine against the per-member reference loop
    ``oracles.conjugate_table_dense``, bit for bit."""

    @pytest.mark.parametrize("callable_g", [False, True])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_the_dense_reference_bit_for_bit(self, m, callable_g, seed):
        g = _boxed_g(m, callable_g, seed)
        search = _search(m, {1: 15, 2: 5}[m])
        grid = GridSpec(Box.cube(m), {1: 41, 2: 11}[m], 2)
        table = family_conjugate_table(g, search, grid=grid)
        ref = oracles.conjugate_table_dense(g, search, grid)
        assert np.isfinite(table).all()
        np.testing.assert_array_equal(_bits(table), _bits(ref))

    @pytest.mark.parametrize("m", [1, 2])
    def test_partly_infeasible_windows(self, m):
        # dom g covers a corner of the search box, so windows near its edge
        # are partly infeasible and members pushed outward end at the edge.
        q = GeneralizedQuadratic.iso(m, -0.5, np.linspace(0.3, -0.7, m), 0.25)
        g = Objective.quadratic(q, domain_box=Box.cube(m, 0.3, 4.0))
        search = _search(m, {1: 21, 2: 5}[m])
        grid = GridSpec(Box.cube(m, -1.0, 1.0), {1: 41, 2: 11}[m], 3)
        table = family_conjugate_table(g, search, grid=grid)
        ref = oracles.conjugate_table_dense(g, search, grid)
        np.testing.assert_array_equal(_bits(table), _bits(ref))
        assert np.isfinite(table).all()

    def test_a_fine_mesh_splits_members_into_blocks(self):
        g = _boxed_g(1, False, 9)
        search = _search(1, 9)
        grid = GridSpec(Box.cube(1), 20001, 2)  # 13 members per value block
        table = family_conjugate_table(g, search, grid=grid)
        np.testing.assert_array_equal(
            _bits(table), _bits(oracles.conjugate_table_dense(g, search, grid)))

    def test_callable_with_infeasible_holes(self):
        g = Objective.from_callable(
            1, lambda y: INF if 0.2 < y[0] < 0.45 else float(y[0] ** 4 - y[0]))
        search = _search(1, 31)
        grid = GridSpec(Box.cube(1, -2.0, 2.0), 41, 2)
        table = family_conjugate_table(g, search, grid=grid)
        np.testing.assert_array_equal(
            _bits(table), _bits(oracles.conjugate_table_dense(g, search, grid)))

    @pytest.mark.parametrize("rounds", [0, 3])
    @pytest.mark.parametrize("case", ["quadratic-1d", "quadratic-2d", "callable-1d",
                                      "callable-2d", "holes"])
    def test_chunked_rounds_match_the_dense_reference(self, case, rounds, monkeypatch):
        # Two windows per chunk, two (window, curvature) pairs per pair chunk
        # and two members per block: every round with more than two windows
        # takes several f evaluations, and the one window of round 0 splits
        # its five curvatures and its members over several chunks.
        if case == "holes":
            m, g = 1, Objective.from_callable(
                1, lambda y: INF if 0.2 < y[0] < 0.45 else float(y[0] ** 4 - y[0]))
            grid = GridSpec(Box.cube(1, -2.0, 2.0), 41, rounds)
        else:
            m = int(case[-2])
            g = _boxed_g(m, case.startswith("callable"), 4 + m)
            grid = GridSpec(Box.cube(m), {1: 41, 2: 11}[m], rounds)
        search = _search(m, {1: 15, 2: 5}[m])
        monkeypatch.setattr(conjugates, "_VALUE_BLOCK", 2 * grid.points_per_axis**m * m)
        calls = []
        values = Objective.values
        monkeypatch.setattr(Objective, "values",
                            lambda f, X: calls.append(len(X)) or values(f, X))
        table = family_conjugate_table(g, search, grid=grid)
        monkeypatch.undo()
        assert search.size > 2  # round 0's one window spans several blocks
        if rounds:
            assert len(calls) > rounds + 1  # and a later round several chunks
        else:
            assert calls == [grid.points_per_axis**m]
        np.testing.assert_array_equal(
            _bits(table), _bits(oracles.conjugate_table_dense(g, search, grid)))

    def test_peak_memory_is_bounded_by_the_value_block(self, monkeypatch):
        # A chunk's meshes and f values, a block's curvature terms, member
        # meshes, values and gathers: at most eight value blocks at once,
        # however many windows a round has.
        def peak(g, search, grid):
            family_conjugate_table(g, search, grid=grid)  # warm the caches
            tracemalloc.start()
            try:
                family_conjugate_table(g, search, grid=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fine = peak(_boxed_g(1, False, 9), _search(1, 9), GridSpec(Box.cube(1), 20001, 2))
        assert fine < 8 * 8 * conjugates._VALUE_BLOCK
        # A gridbox-sized table (11 points per axis, 275 members) fits in one
        # block; a smaller block must bound it just the same.
        monkeypatch.setattr(conjugates, "_VALUE_BLOCK", 1 << 13)
        search = FamilySearchGrid.default(
            Family(2, CurvatureSpec.nonpos()), slope_points=5, curvature_points=11)
        small = peak(_boxed_g(2, False, 4), search, GridSpec(Box.cube(2), 11, 2))
        assert small < 8 * 8 * conjugates._VALUE_BLOCK

    @pytest.mark.parametrize("m", [1, 2])
    def test_wholly_infeasible_box_gives_minus_inf(self, m):
        g = Objective.quadratic(GeneralizedQuadratic.iso(m, 1.0),
                                domain_box=Box.cube(m, 5.0, 6.0))
        search = _search(m, 3)
        table = family_conjugate_table(g, search, grid=GridSpec(Box.cube(m, -1.0, 1.0), 11))
        assert np.all(table == -INF)
        np.testing.assert_array_equal(
            _bits(table),
            _bits(oracles.conjugate_table_dense(g, search, GridSpec(Box.cube(m, -1.0, 1.0), 11))))

    def test_ties_keep_the_first_index_and_the_earlier_round(self):
        g = Objective.from_callable(1, _plateau)
        search = FamilySearchGrid(Family(1, CurvatureSpec.nonpos()),
                                  Box.cube(1, -1.0, 1.0), 5, (-1.0, 0.0))
        grid = GridSpec(Box.cube(1), 201)
        table = family_conjugate_table(g, search, grid=grid)
        np.testing.assert_array_equal(
            _bits(table), _bits(oracles.conjugate_table_dense(g, search, grid)))
        assert table[1, 2] == 0.0  # phi = 0: the whole plateau ties

    @pytest.mark.parametrize("case", ["quadratic", "callable-2d", "hole",
                                      "infeasible", "plateau", "general-phi"])
    def test_conjugate_grid_is_the_one_member_call(self, case):
        grid = GridSpec(Box.cube(1), 201)
        phi = GeneralizedQuadratic.zero(1)
        if case == "quadratic":
            f, phi = _boxed_g(1, False, 5), member(-0.5, 1.5)
        elif case == "callable-2d":
            f, grid = _boxed_g(2, True, 6), GridSpec(Box.cube(2, -3.0, 3.0), 11)
            phi = GeneralizedQuadratic.iso(2, -0.25, [0.5, -1.0])
        elif case == "hole":
            f = Objective.from_callable(1, lambda y: INF if y[0] < 0.3 else float(y[0]))
        elif case == "infeasible":
            f = Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0),
                                    domain_box=Box([11.0], [12.0]))
        elif case == "plateau":
            f = Objective.from_callable(1, _plateau)
        else:
            f = _boxed_g(2, False, 7)
            phi = GeneralizedQuadratic(2, [[-1.0, 0.3], [0.3, 0.5]], [1.0, 2.0], -0.7)
            grid = GridSpec(Box.cube(2, -3.0, 3.0), 11)
        res = conjugate_grid(f, phi, grid)
        value, x, note = oracles.conjugate_grid_dense(f, phi, grid)
        assert res.engine == "grid" and res.note == note
        assert _bits(res.value) == _bits(value)
        if x is None:
            assert res.maximizer is None and res.value == -INF
        else:
            np.testing.assert_array_equal(_bits(res.maximizer), _bits(x))
        if case == "plateau":
            # round 0 finds -0.9; round 1 ties at about -0.95 and must not win
            assert res.value == 0.0 and res.maximizer[0] == pytest.approx(-0.9)

    @pytest.mark.parametrize("block", ["default", "small"])
    @pytest.mark.parametrize("case", ["iso-1d", "iso-2d", "callable-2d", "general-phi"])
    def test_stacked_terms_match_the_per_curvature_loop(self, case, block, monkeypatch):
        # The table and the maximizers, bit for bit, against the engine
        # that formed the x.A x terms one curvature at a time; a small value
        # block puts several windows and several curvatures in each chunk.
        if case == "general-phi":
            f, grid = _boxed_g(2, False, 7), GridSpec(Box.cube(2, -3.0, 3.0), 11, 2)
            phi = GeneralizedQuadratic(2, [[-1.0, 0.3], [0.3, 0.5]], [1.0, 2.0], -0.7)
            mats, U, c = phi.A[None], phi.u[None], phi.c
        else:
            m = int(case[-2])
            f = _boxed_g(m, case.startswith("callable"), 10 + m)
            grid = GridSpec(Box.cube(m), {1: 41, 2: 11}[m], 2)
            search = _search(m, {1: 15, 2: 5}[m])
            mats = np.array([GeneralizedQuadratic.iso(m, beta).A for beta in search.curvatures])
            U, c = search.slopes(), 0.0
        if block == "small":
            monkeypatch.setattr(conjugates, "_VALUE_BLOCK", 3 * grid.points_per_axis**f.dim * f.dim)
        table, maximizers = _grid_sup_table(f, mats, U, c, grid)
        ref_table, ref_maximizers = oracles.grid_sup_table_loop(f, mats, U, c, grid)
        assert np.isfinite(table).all()
        np.testing.assert_array_equal(_bits(table), _bits(ref_table))
        np.testing.assert_array_equal(_bits(maximizers), _bits(ref_maximizers))

    @pytest.mark.parametrize("case", ["quad-1d", "quad-2d", "quad-3d", "callable-2d", "signed-zeros"])
    def test_member_matrices_are_the_iso_matrices(self, case, monkeypatch):
        # The grid branch builds its member matrices in one broadcast: they,
        # the table and the maximizers equal the per-curvature iso(...).A
        # list fed to the reference engine, bit for bit.
        m = 1 if case == "signed-zeros" else int(case[-2])
        g = _boxed_g(m, case.startswith("callable"), 20 + m)
        if case == "signed-zeros":
            search = FamilySearchGrid(
                Family(1, CurvatureSpec.nonpos()), Box.cube(1), 9, (-1.5, -0.0, 0.0, -0.0))
        else:
            search = _search(m, {1: 15, 2: 5, 3: 3}[m])
        grid = GridSpec(Box.cube(m), {1: 41, 2: 11, 3: 5}[m], 2)
        calls, engine = [], conjugates._grid_sup_table

        def record(*args):
            calls.append((args[1], *engine(*args)))
            return calls[-1][1:]

        monkeypatch.setattr(conjugates, "_grid_sup_table", record)
        table = family_conjugate_table(g, search, grid=grid)
        (stack, values, maximizers), = calls
        mats = [GeneralizedQuadratic.iso(m, beta).A for beta in search.curvatures]
        ref_values, ref_maximizers = oracles.grid_sup_table_loop(
            g, mats, search.slopes(), 0.0, grid)
        np.testing.assert_array_equal(_bits(stack), _bits(np.stack(mats)))
        assert table is values and np.isfinite(table).all()
        np.testing.assert_array_equal(_bits(table), _bits(ref_values))
        np.testing.assert_array_equal(_bits(maximizers), _bits(ref_maximizers))
        if case == "signed-zeros":
            assert np.signbit(stack[[1, 3]]).all() and not np.signbit(stack[2]).any()

    def test_windows_that_differ_in_a_zero_sign_stay_apart(self):
        lower = np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, 2.0]])
        upper = np.array([[1.0, 3.0], [1.0, 3.0], [1.0, 3.0], [1.0, 3.0]])
        first, ids = _group_windows(lower, upper)
        groups = [np.flatnonzero(ids == w) for w in range(len(first))]
        assert sorted(map(list, groups)) == [[0, 2], [1], [3]]
        assert all(ids[row] == w for w, row in enumerate(first))

    def test_dimension_mismatch(self):
        g = Objective.from_callable(2, lambda y: 0.0, domain_box=Box.cube(2))
        with pytest.raises(InvariantViolation):
            family_conjugate_table(g, _search(1, 3))


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

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_a_point_gets_its_batch_row_bits(self, n, m, fuzz_instance, rng):
        inst = fuzz_instance(n, m, seed=10 * n + m)
        search = inst.psi_search
        table = family_conjugate_table(inst.g, search)
        Y = rng.uniform(-8.0, 8.0, size=(120, m))
        rows = biconjugate_many(inst.g, Y, search, table)
        alone = np.array([biconjugate_at(inst.g, y, search, table) for y in Y])
        assert alone.tobytes() == rows.tobytes()

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


class TestBiconjugateKernel:
    """``_biconjugate_argmax`` against the curvature loop it replaced
    (``oracles.biconjugate_argmax_loop``): equal value bits and equal
    winners, ties and signed zeros included."""

    @staticmethod
    def assert_same(X, search, table):
        values, winner = _biconjugate_argmax(X, search, table)
        want_values, want_winner = oracles.biconjugate_argmax_loop(X, search, table)
        assert values.tobytes() == want_values.tobytes()
        assert winner.dtype == want_winner.dtype
        np.testing.assert_array_equal(winner, want_winner)

    @staticmethod
    def search_1d(curvatures):
        return FamilySearchGrid(
            Family(1, CurvatureSpec.any()), Box.cube(1, -2.0, 2.0), 5, curvatures)

    @pytest.mark.parametrize("n,m", FUZZ_DIMS)
    def test_fuzz_tables(self, n, m, fuzz_instance, rng):
        inst = fuzz_instance(n, m, seed=10 * n + m)
        table = family_conjugate_table(inst.g, inst.psi_search)
        for rows in (0, 1, 2, 257):
            self.assert_same(rng.uniform(-12.0, 12.0, size=(rows, m)), inst.psi_search, table)
        self.assert_same(inst.L.apply(inst.x_search.mesh()), inst.psi_search, table)

    def test_exact_ties_and_signed_zeros(self, rng):
        # every member of an all-zero table ties at x = 0: the first
        # curvature and the first column win
        search = self.search_1d((-1.0, 0.0, -0.5, -1.0))
        X = np.array([[0.0], [-0.0], [1.0], [-1.0], [0.0], [2.0], [-0.0]])
        for rows in (0, 1, 2, 7):
            self.assert_same(X[:rows], search, np.zeros((4, 5)))
            self.assert_same(X[:rows], search, np.full((4, 5), -0.0))
        values, winner = _biconjugate_argmax(X[:2], search, np.zeros((4, 5)))
        assert np.all(values == 0.0) and np.all(winner == 0)
        for _ in range(50):
            table = np.where(rng.random((4, 5)) < 0.5, 0.0, -0.0)
            X = np.where(rng.random((9, 1)) < 0.5, 0.0, -0.0)
            self.assert_same(X, search, table)

    def test_infinite_rows_and_entries(self, rng):
        search = self.search_1d((-1.0, -0.5, 0.0))
        X = rng.uniform(-3.0, 3.0, size=(257, 1))
        table = rng.normal(size=(3, 5))
        table[0] = INF
        table[1, [0, 3]] = -INF
        table[2, 1] = INF
        self.assert_same(X, search, table)
        table[1] = INF
        self.assert_same(X, search, table)
        self.assert_same(X, search, np.full((3, 5), -INF))
        self.assert_same(X, search, np.full((3, 5), INF))
        values, winner = _biconjugate_argmax(X, search, np.full((3, 5), INF))
        assert np.all(values == -INF) and np.all(winner == -1)

    def test_grid_engine_tables(self, rng):
        g = Objective.quadratic(
            GeneralizedQuadratic(2, [[1.0, 0.3], [0.3, -2.0]], [0.5, -1.0], 0.2),
            domain_box=Box([-1.0, -2.0], [1.5, 1.0]))
        search = FamilySearchGrid.default(Family(2, CurvatureSpec.nonpos()), slope_points=5)
        table = family_conjugate_table(g, search)
        self.assert_same(rng.uniform(-3.0, 3.0, size=(300, 2)), search, table)

    def test_overflow_to_nan(self):
        # 0 * |x|^2 = 0 * inf is NaN and 1 * |x|^2 is +inf: the value is NaN,
        # and the winner is the one the loop had before the first NaN top
        search = self.search_1d((-1.0, 1.0, 0.0, 2.0))
        X = np.array([[1e200], [0.5], [-1e200], [1.0]])
        table = np.zeros((4, 5))
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_same(X, search, table)
            values, winner = _biconjugate_argmax(X, search, table)
            assert np.isnan(values[0]) and winner[0] // 5 == 1
            table[1] = INF
            self.assert_same(X, search, table)


def _sup_stack(rng, dim, count, kinds):
    """``count`` symmetric matrices, each drawn from ``kinds``: "neg"
    (negative definite), "ker" (diagonal, zero on the last axis and on the
    others at random, so its kernel is exact) or "dead" (a positive
    eigenvalue, on the last axis of a diagonal matrix or in a random
    direction)."""
    out = []
    for kind in rng.choice(kinds, size=count):
        M = rng.normal(size=(dim, dim))
        if kind == "neg":
            out.append(-(M @ M.T) - 0.5 * np.eye(dim))
        elif kind == "ker":
            d = -rng.uniform(0.5, 2.0, size=dim)
            d[rng.random(dim) < 0.3] = 0.0
            d[-1] = 0.0
            out.append(np.diag(d))
        else:
            e = rng.uniform(-2.0, 2.0, size=dim)
            e[-1] = rng.uniform(0.5, 2.0)
            Q = np.linalg.qr(M)[0] if rng.random() < 0.5 else np.eye(dim)
            R = Q @ np.diag(e) @ Q.T
            out.append(0.5 * (R + R.T))
    return np.array(out)


SUP_KINDS = {"dead": ("dead",), "mixed": ("neg", "ker", "dead"), "live": ("neg", "ker")}


class TestQuadraticSupKernel:
    """``_quadratic_sup_many`` against the kernel it replaced
    (``oracles.quadratic_sup_loop``), byte for byte: dead, mixed and live
    stacks, kernel directions with zero and nonzero linear terms, shared
    and per-matrix linear terms, scalar and per-matrix constants."""

    @staticmethod
    def assert_same(D, v, k):
        got, want = _quadratic_sup_many(D, v, k), oracles.quadratic_sup_loop(D, v, k)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("liveness", sorted(SUP_KINDS))
    @pytest.mark.parametrize("per_matrix_v", [False, True])
    @pytest.mark.parametrize("per_matrix_k", [False, True])
    def test_same_bits_as_the_loop(self, dim, liveness, per_matrix_v, per_matrix_k):
        rng = np.random.default_rng([dim, len(liveness), per_matrix_v, per_matrix_k])
        for count in (1, 2, 9):
            D = _sup_stack(rng, dim, count, SUP_KINDS[liveness])
            v = rng.normal(size=(count, 8, dim) if per_matrix_v else (8, dim))
            # the kernel axis gets no linear term in half the rows, a signed
            # zero in some: those stay finite, the others escape to +inf
            v[..., :4, -1] = np.where(rng.random(v[..., :4, -1].shape) < 0.5, 0.0, -0.0)
            k = rng.normal(size=count) if per_matrix_k else float(rng.choice([-0.0, 0.0, 1.5]))
            got = self.assert_same(D, v, k)
            if liveness == "dead":
                assert np.all(got == INF)

    def test_every_outcome_occurs(self):
        rng = np.random.default_rng(7)
        D = _sup_stack(rng, 2, 30, SUP_KINDS["mixed"])
        v = rng.normal(size=(8, 2))
        v[:4, -1] = 0.0
        got = self.assert_same(D, v, 0.5)
        assert np.isfinite(got).any() and (got == INF).all(axis=1).any()
        assert ((got == INF).any(axis=1) & np.isfinite(got).any(axis=1)).any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrices(self, dim, bad):
        """A NaN row of eigenvalues is NaN throughout; where ``eigh``
        fails, both kernels raise its error."""
        rng = np.random.default_rng(dim)
        D = _sup_stack(rng, dim, 6, SUP_KINDS["mixed"])
        D[1] = bad
        D[4, 0, 0] = bad
        v = rng.normal(size=(5, dim))
        for stack, k in ((D, rng.normal(size=6)), (D[1:2], 0.0), (D[4:5], -0.0)):
            with np.errstate(invalid="ignore"):
                try:
                    want = oracles.quadratic_sup_loop(stack, v, k)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        _quadratic_sup_many(stack, v, k)
                    continue
                assert _quadratic_sup_many(stack, v, k).tobytes() == want.tobytes()


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
