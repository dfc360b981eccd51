"""Boxes, extended-real objectives, and weak-convexity moduli."""

import math

import numpy as np
import pytest

import oracles
from abconv import (
    Box,
    CurvatureSpec,
    Family,
    FamilySearchGrid,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    InvariantViolation,
    LinearMap,
    Objective,
    family_conjugate_table,
    shifted_modulus,
    weak_convexity_modulus,
)
from abconv.objectives import mesh_windows, shrink_windows


class TestBox:
    def test_contains(self):
        box = Box([-1.0, 0.0], [1.0, 2.0])
        assert box.contains([0.0, 1.0])
        assert not box.contains([0.0, 3.0])

    def test_mesh_is_c_ordered(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        mesh = box.mesh(2)
        np.testing.assert_allclose(
            mesh, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        )

    def test_mesh_size(self):
        assert Box.cube(2).mesh(5).shape == (25, 2)

    def test_stacked_meshes_keep_each_window_bits(self):
        # Window 0 is flat on axis 0. One np.linspace over every window would
        # round all the other axes differently; each must equal its own mesh.
        lower = np.array([[0.1, -1.0], [0.3, 0.0], [-2.0, 0.7]])
        upper = np.array([[0.1, 1.0], [1.7, 0.3], [5.0, 0.9]])
        meshes = mesh_windows(lower, upper, 7)
        assert meshes.shape == (3, 49, 2)
        for lo, hi, X in zip(lower, upper, meshes):
            axes = [np.linspace(lo[i], hi[i], 7) for i in range(2)]
            ref = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
            assert X.tobytes() == ref.tobytes()
            assert Box(lo, hi).mesh(7).tobytes() == ref.tobytes()

    def test_infinite_axes_allowed_but_not_meshable(self):
        box = Box([-INF], [0.0])
        assert box.contains([-100.0])
        assert not box.contains([0.5])
        assert not box.is_finite
        with pytest.raises(InvariantViolation):
            box.mesh(3)
        with pytest.raises(InvariantViolation):
            box.sample(3, np.random.default_rng(0))
        with pytest.raises(InvariantViolation):
            shrink_windows(box.lower, box.upper, [0.0], 0.1)

    def test_shrink_windows_stays_inside(self):
        box = Box.cube(1, -10.0, 10.0)
        inner = Box(*shrink_windows(box.lower, box.upper, [9.9], 0.1))
        assert inner.lower[0] >= box.lower[0] and inner.upper[0] <= box.upper[0]
        assert inner.upper[0] - inner.lower[0] <= 2.0 + 1e-12
        assert inner.contains([9.9])

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            Box([1.0], [0.0])
        with pytest.raises(InvariantViolation):
            Box([np.nan], [1.0])
        with pytest.raises(InvariantViolation):
            Box([0.0, 0.0], [1.0])


class TestObjective:
    def test_quadratic_value_and_batch(self):
        q = GeneralizedQuadratic.iso(1, 1.0, [2.0], 1.0)  # (x+1)^2
        f = Objective.quadratic(q)
        assert f.quad is not None
        assert f.value([-1.0]) == 0.0
        np.testing.assert_allclose(f.values(np.array([[0.0], [1.0]])), [1.0, 4.0])

    def test_domain_box_masks_values(self):
        q = GeneralizedQuadratic.iso(1, 1.0)
        f = Objective.quadratic(q, domain_box=Box([0.0], [2.0]))
        assert f.value([1.0]) == 1.0
        assert f.value([-1.0]) == INF
        vals = f.values(np.array([[-1.0], [1.0], [3.0]]))
        np.testing.assert_array_equal(vals, [INF, 1.0, INF])

    def test_callable_objective(self):
        f = Objective.from_callable(1, lambda x: float(x[0]) ** 4)
        assert f.quad is None
        assert f.value([2.0]) == 16.0
        np.testing.assert_allclose(f.values(np.array([[1.0], [2.0]])), [1.0, 16.0])

    def test_exact_is_the_quadratic_without_a_box(self):
        q = GeneralizedQuadratic.iso(1, 1.0, [2.0], 1.0)
        box = Box([0.0], [2.0])
        assert Objective.quadratic(q).exact is q
        assert Objective.quadratic(q, domain_box=box).exact is None
        assert Objective.from_callable(1, lambda x: float(q(x))).exact is None
        assert Objective.from_callable(1, lambda x: float(q(x)), domain_box=box).exact is None

    def test_rejects_nan_and_minus_inf(self):
        bad_nan = Objective.from_callable(1, lambda x: float("nan"))
        with pytest.raises(InvariantViolation):
            bad_nan.value([0.0])
        bad_inf = Objective.from_callable(1, lambda x: -INF)
        with pytest.raises(InvariantViolation):
            bad_inf.value([0.0])

    def test_needs_exactly_one_payload(self):
        with pytest.raises(InvariantViolation):
            Objective(1)
        with pytest.raises(InvariantViolation):
            Objective(1, quad=GeneralizedQuadratic.zero(1), fn=lambda x: 0.0)

    def test_dimension_checks(self):
        with pytest.raises(InvariantViolation):
            Objective.quadratic(GeneralizedQuadratic.zero(2), domain_box=Box([0.0], [1.0]))
        f = Objective.quadratic(GeneralizedQuadratic.zero(2))
        with pytest.raises(InvariantViolation):
            f.value([1.0])


def _edge_rows(box: Box, rng: np.random.Generator, n: int = 300) -> np.ndarray:
    """Rows whose coordinates are drawn from each axis's bounds, the floats
    next to them, signed zeros, NaN and +-inf, plus one row per bound with
    that coordinate exactly on it and the rest at 0."""
    cols = []
    for lo, hi in zip(box.lower, box.upper):
        pool = [lo, hi, np.nextafter(lo, -INF), np.nextafter(hi, INF),
                np.nextafter(lo, INF), np.nextafter(hi, -INF),
                0.0, -0.0, 0.25, -0.25, np.nan, INF, -INF]
        cols.append(rng.choice(np.array(pool), n))
    on_bound = np.zeros((2 * box.dim, box.dim))
    for k in range(box.dim):
        on_bound[2 * k, k], on_bound[2 * k + 1, k] = box.lower[k], box.upper[k]
    return np.vstack([np.stack(cols, axis=1), on_bound])


class TestContainsBatch:
    """The per-axis fold against the reduction along each row,
    ``oracles.contains_batch_all``, byte for byte, and against ``contains``
    row by row."""

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_the_reduction_along_each_row(self, dim):
        rng = np.random.default_rng(dim)
        lower, upper = -rng.uniform(0.5, 3.0, dim), rng.uniform(0.5, 3.0, dim)
        half_open = lower.copy()
        half_open[0] = -INF
        signed = np.where(np.arange(dim) % 2, -0.0, 0.0)
        for box in (Box(lower, upper), Box(half_open, upper), Box(signed, np.zeros(dim)),
                    Box(np.full(dim, -INF), np.full(dim, INF))):
            X = _edge_rows(box, rng)
            got = box.contains_batch(X)
            expected = oracles.contains_batch_all(box, X)
            assert got.dtype == bool and got.shape == (len(X),)
            assert got.tobytes() == expected.tobytes()
            assert got.tolist() == [box.contains(x) for x in X]
            assert got.any() and not got.all()
            empty = np.empty((0, dim))
            assert box.contains_batch(empty).tobytes() == oracles.contains_batch_all(box, empty).tobytes()
            assert box.contains_batch(empty).shape == (0,)

    @pytest.mark.parametrize("shape", [(5, 1), (5, 3), (0, 3), (2,), (5, 2, 1), ()])
    def test_rows_of_another_width_raise(self, shape):
        # A fold over the box's axes would read the first columns of a wider
        # batch silently.
        with pytest.raises(InvariantViolation):
            Box.cube(2).contains_batch(np.zeros(shape))


def recorded(dim, fn, box=None):
    """A callable objective that keeps a copy of every point it is called at."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return fn(x)

    return Objective.from_callable(dim, wrapped, domain_box=box), calls


class TestBatchValues:
    """``values`` calls a callable as ``value`` does, point by point: only
    inside the domain box, and once per distinct row."""

    def test_a_callable_is_never_called_outside_its_box(self):
        box = Box([0.1], [5.0])
        g, calls = recorded(1, lambda y: -math.log(y[0]), box)
        assert g.value([-1.0]) == INF and calls == []
        X = Box.cube(1).mesh(41)
        vals = g.values(X)
        inside = box.contains_batch(X)
        assert calls and all(box.contains(y) for y in calls)
        assert np.all(vals[~inside] == INF)
        assert vals[inside].tolist() == [g.value(y) for y in X[inside]]
        search = FamilySearchGrid.default(
            Family(1, CurvatureSpec.nonpos()), slope_points=9, curvature_points=5)
        table = family_conjugate_table(g, search, grid=GridSpec(Box.cube(1), 41, 2))
        # sup_y psi(y) - g(y) is at least its value at y = 1, where g is 0
        lower = np.asarray(search.curvatures)[:, None] + search.slopes()[:, 0]
        assert np.all(np.isfinite(table)) and np.all(table >= lower)

    def test_once_per_distinct_row_and_signed_zeros_differ(self):
        f, calls = recorded(2, lambda x: math.copysign(1.0, x[0]) + x[1])
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.0, 3.0],
                      [-0.0, 1.0], [2.0, 3.0], [0.0, -0.0]])
        vals = f.values(X)
        assert vals.tolist() == [2.0, 0.0, 2.0, 4.0, 0.0, 4.0, 1.0]
        assert sorted(x.tobytes() for x in calls) == sorted(
            X[i].tobytes() for i in (0, 1, 3, 6))

    def test_nan_or_minus_inf_inside_the_box_still_raises(self):
        box = Box([0.0], [2.0])
        for bad in (math.nan, -INF):
            f = Objective.from_callable(1, lambda x, b=bad: b if x[0] > 1.0 else 0.0, box)
            with pytest.raises(InvariantViolation):
                f.values(np.array([[0.5], [1.5]]))
            assert f.values(np.array([[0.5], [3.0]])).tolist() == [0.0, INF]

    def test_a_whole_space_box_skips_the_containment_test(self, monkeypatch):
        q = GeneralizedQuadratic(2, [[1.0, 0.5], [0.5, 2.0]], [1.0, -1.0], 0.25)
        whole = Box([-INF, -INF], [INF, INF])
        half = Box([-INF, INF], [INF, INF])  # no finite bound, yet not all of R^2
        assert whole.is_whole_space and not half.is_whole_space
        X = np.array([[1.0, 2.0], [-3.0, 0.5], [-0.0, 7.0]])
        expected = Objective.quadratic(q).values(X)
        assert Objective.quadratic(q, domain_box=half).values(X).tolist() == [INF] * 3

        def refuse(box, X):
            raise AssertionError("contains_batch called on a whole-space box")

        monkeypatch.setattr(Box, "contains_batch", refuse)
        f = Objective.quadratic(q, domain_box=whole)
        assert f.values(X).tobytes() == expected.tobytes()
        with pytest.raises(InvariantViolation):  # a NaN row is the one outside
            f.values(np.array([[1.0, np.nan]]))


class TestWeakConvexityModulus:
    def test_quadratic_exact(self):
        q = GeneralizedQuadratic(2, [[1.0, 0.0], [0.0, -2.0]], [0.0, 0.0], 0.0)
        rep = weak_convexity_modulus(Objective.quadratic(q))
        assert rep.certified and rep.method == "eigenvalue"
        assert rep.modulus == pytest.approx(2.0)

    def test_convex_quadratic_has_zero_modulus(self):
        rep = weak_convexity_modulus(
            Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0, [3.0], -2.0))
        )
        assert rep.modulus == 0.0 and rep.certified

    def test_sampling_estimate_on_callable(self):
        # -x^2 has modulus exactly 1; every midpoint violation reproduces it.
        f = Objective.from_callable(1, lambda x: -float(x[0]) ** 2, domain_box=Box([-3.0], [3.0]))
        rep = weak_convexity_modulus(f)
        assert not rep.certified and rep.method == "midpoint-sampling"
        assert rep.modulus == pytest.approx(1.0, abs=1e-9)

    def test_shifted_modulus(self):
        f = Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0))
        L = LinearMap(np.array([[2.0]]))
        assert shifted_modulus(f, 0.5, L) == pytest.approx(1.0 + 0.5 * 4.0)
        with pytest.raises(InvariantViolation):
            shifted_modulus(f, -0.1, L)
        opaque = Objective.from_callable(1, lambda x: 0.0, domain_box=Box([-1.0], [1.0]))
        with pytest.raises(InvariantViolation):
            shifted_modulus(opaque, 0.5, L)
