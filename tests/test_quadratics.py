"""Generalized quadratics, curvature classes, families, and linear maps."""

import math
import warnings

import numpy as np
import pytest

import oracles
from abconv import (
    CurvatureSpec,
    Family,
    FamilySearchGrid,
    GeneralizedQuadratic,
    InvariantViolation,
    LinearMap,
    combine,
    pullback,
)
from abconv import quadratics
from abconv.config import TOL
from abconv.quadratics import quadratic_form

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -2.5e-310, 1.0, -3.0])


class TestGeneralizedQuadratic:
    def test_point_evaluation_matches_hand_value(self):
        q = GeneralizedQuadratic(2, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0], 0.5)
        assert q([1.0, 2.0]) == pytest.approx(17.5, abs=1e-12)

    def test_point_evaluation_matches_oracle(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            A = rng.normal(size=(dim, dim))
            A = 0.5 * (A + A.T)
            u = rng.normal(size=dim)
            c = float(rng.normal())
            q = GeneralizedQuadratic(dim, A, u, c)
            x = rng.normal(size=dim)
            assert q(x) == pytest.approx(oracles.quad_scalar(A, u, c, x), rel=1e-12)

    def test_batch_evaluation_matches_points(self, rng):
        q = GeneralizedQuadratic(2, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0], 0.5)
        X = rng.normal(size=(10, 2))
        batch = q(X)
        assert batch.shape == (10,)
        for i in range(10):
            assert batch[i] == pytest.approx(q(X[i]), rel=1e-12)

    def test_a_scalar_or_a_batch_of_the_wrong_width_raises(self):
        q = GeneralizedQuadratic(1, [[2.0]], [1.0], 0.5)
        for x in (0.5, np.array(0.5), np.zeros((4, 2)), np.zeros((4, 0)), np.zeros((2, 1, 1))):
            with pytest.raises(InvariantViolation, match="point shape"):
                q(x)
        q2 = GeneralizedQuadratic(2, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0], 0.5)
        with pytest.raises(InvariantViolation, match="point shape"):
            q2(np.zeros((3, 3)))
        for x in (np.zeros(3), np.zeros(1), np.zeros(0)):
            with pytest.raises(InvariantViolation, match=rf"point shape \({len(x)},\) != \(2,\)"):
                q2(x)
        assert q(np.zeros((0, 1))).shape == (0,)

    def test_gradient(self):
        q = GeneralizedQuadratic(2, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0], 0.5)
        np.testing.assert_allclose(q.gradient([1.0, 2.0]), [9.0, 13.0])

    def test_constructors(self):
        z = GeneralizedQuadratic.zero(3)
        assert z([1.0, 2.0, 3.0]) == 0.0
        aff = GeneralizedQuadratic.affine([2.0, -1.0], 0.5)
        assert aff([3.0, 1.0]) == pytest.approx(5.5)
        iso = GeneralizedQuadratic.iso(2, -1.5, [1.0, 0.0], 2.0)
        assert iso([1.0, 1.0]) == pytest.approx(-1.5 * 2 + 1.0 + 2.0)

    def test_algebra_by_evaluation(self, rng):
        q1 = GeneralizedQuadratic.iso(2, 1.0, [1.0, 2.0], -1.0)
        q2 = GeneralizedQuadratic.iso(2, -0.5, [0.0, 1.0], 2.0)
        x = rng.normal(size=2)
        assert (q1 + q2)(x) == pytest.approx(q1(x) + q2(x), rel=1e-12)
        assert (q1 - q2)(x) == pytest.approx(q1(x) - q2(x), rel=1e-12)
        assert (-q1)(x) == pytest.approx(-q1(x), rel=1e-12)
        assert (3.0 * q1)(x) == pytest.approx(3.0 * q1(x), rel=1e-12)
        assert combine(2.0, q1, -1.0, q2)(x) == pytest.approx(
            2.0 * q1(x) - q2(x), rel=1e-12
        )

    def test_shifted_evaluates_at_translated_point(self, rng):
        q = GeneralizedQuadratic(2, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0], 0.5)
        y = np.array([0.3, -0.7])
        x = rng.normal(size=2)
        assert q.shifted(y)(x) == pytest.approx(q(x + y), rel=1e-12)
        assert q.shifted(y).c == q(y)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(InvariantViolation):
            GeneralizedQuadratic(2, [[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], 0.0)

    def test_rejects_nonfinite_terms(self):
        with pytest.raises(InvariantViolation):
            GeneralizedQuadratic(1, [[np.inf]], [0.0], 0.0)
        with pytest.raises(InvariantViolation):
            GeneralizedQuadratic(1, [[1.0]], [np.nan], 0.0)
        with pytest.raises(InvariantViolation):
            GeneralizedQuadratic(1, [[1.0]], [0.0], np.inf)

    @pytest.mark.parametrize("A", [[[1e308]], [[-1.7e308]], [[1e308, 1e308], [1e308, 1e308]]])
    def test_finite_matrix_whose_symmetrization_overflows_is_rejected(self, A):
        # 0.5 * (A + A.T) overflows before it halves, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvariantViolation, match="overflow"):
                GeneralizedQuadratic(len(A), A, [0.0] * len(A), 0.0)

    def test_large_entries_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvariantViolation, match="not symmetric"):
                GeneralizedQuadratic(2, [[0.0, 1e308], [-1e308, 0.0]], [0.0, 0.0], 0.0)
            assert GeneralizedQuadratic(1, [[8e307]], [0.0], 0.0).A[0, 0] == 8e307

    def test_combine_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            combine(1.0, GeneralizedQuadratic.zero(1), 1.0, GeneralizedQuadratic.zero(2))

    def test_is_zero_and_min_eigenvalue(self):
        assert GeneralizedQuadratic.zero(2).is_zero()
        assert not GeneralizedQuadratic.affine([1e-3], 0.0).is_zero(tol=1e-6)
        q = GeneralizedQuadratic(2, [[1.0, 0.0], [0.0, -2.0]], [0.0, 0.0], 0.0)
        assert q.min_eigenvalue() == pytest.approx(-2.0)

    def test_arrays_are_frozen(self):
        q = GeneralizedQuadratic.iso(2, 1.0)
        with pytest.raises(ValueError):
            q.A[0, 0] = 5.0


def bits(values):
    """Values as integers, so that NaNs (inf * 0) compare too."""
    return np.ascontiguousarray(values).view(np.int64)


def random_matrix(rng, dim):
    A = rng.normal(size=(dim, dim))
    A[rng.random((dim, dim)) < 0.2] = 0.0
    return A + A.T


def _public(q):
    """The quadratic the public constructor builds on q's fields."""
    return GeneralizedQuadratic(q.dim, np.array(q.A), np.array(q.u), q.c)


def _draw(rng, dim):
    """A quadratic with signed zeros, subnormals and large entries among
    its fields, through the public constructor."""
    pool = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e150, -3.0, 0.5])
    A = np.where(rng.random((dim, dim)) < 0.4, rng.choice(pool, (dim, dim)),
                 rng.normal(size=(dim, dim)))
    u = np.where(rng.random(dim) < 0.4, rng.choice(pool, dim), rng.normal(size=dim))
    return GeneralizedQuadratic(dim, np.triu(A) + np.triu(A, 1).T, u,
                                float(rng.choice([-0.0, 0.0, rng.normal()])))


def _derived_and_public(rng, dim):
    """Each derived construction paired with the public constructor on the
    fields it forms, in the same arithmetic."""
    q1, q2 = _draw(rng, dim), _draw(rng, dim)
    s1, s2 = (float(rng.choice([-0.0, 0.0, 1.0, -1.0, rng.normal()])) for _ in range(2))
    alpha = float(rng.choice([-0.0, 0.0, rng.normal()]))
    u = np.where(rng.random(dim) < 0.3, -0.0, rng.normal(size=dim))
    y = rng.normal(size=dim)
    G = GeneralizedQuadratic
    return [
        (G.zero(dim), G(dim, np.zeros((dim, dim)), np.zeros(dim), 0.0)),
        (G.affine(u, s1), G(dim, np.zeros((dim, dim)), u, s1)),
        (G.iso(dim, alpha), G(dim, alpha * np.eye(dim), np.zeros(dim), 0.0)),
        (G.iso(dim, alpha, u, s2), G(dim, alpha * np.eye(dim), u, s2)),
        (-q1, G(dim, -q1.A, -q1.u, -q1.c)),
        (s1 * q1, G(dim, s1 * q1.A, s1 * q1.u, s1 * q1.c)),
        (combine(s1, q1, s2, q2),
         G(dim, s1 * q1.A + s2 * q2.A, s1 * q1.u + s2 * q2.u, s1 * q1.c + s2 * q2.c)),
        (q1 + q2, G(dim, q1.A + q2.A, q1.u + q2.u, q1.c + q2.c)),
        (q1 - q2, G(dim, q1.A - q2.A, q1.u - q2.u, q1.c - q2.c)),
        (q1.shifted(y), G(dim, q1.A, 2.0 * (q1.A @ y) + q1.u, q1(y))),
    ]


class TestDerivedConstruction:
    """The quadratics the package derives skip the symmetry scan; each
    equals the public constructor on the same fields, -0.0 included."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_derived_equals_public(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(30):
            for derived, public in _derived_and_public(rng, dim):
                assert derived == public
                assert derived == _public(derived)
                assert not derived.A.flags.writeable and not derived.u.flags.writeable

    @pytest.mark.parametrize("s, match", [
        (1.0, "overflow when symmetrized"),  # the sum passes _HALF_MAX
        (3.0, "must be finite"),  # the sum overflows
    ])
    def test_combine_out_of_range_raises_as_the_constructor(self, s, match):
        q = GeneralizedQuadratic(2, [[8e307, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(InvariantViolation, match=match) as derived:
                combine(s, q, s, q)
            with pytest.raises(InvariantViolation) as public:
                GeneralizedQuadratic(2, s * q.A + s * q.A, q.u, 0.0)
            with pytest.raises(InvariantViolation, match=match):
                (2.0 * s) * q
        assert str(derived.value) == str(public.value)

    def test_non_finite_fields_raise_on_the_derived_path(self):
        q = GeneralizedQuadratic.iso(1, 1.0)
        for build in (lambda: GeneralizedQuadratic.iso(1, np.nan),
                      lambda: GeneralizedQuadratic.iso(1, 1.0, [np.inf]),
                      lambda: GeneralizedQuadratic.affine([1.0], np.inf),
                      lambda: np.inf * q,
                      lambda: q.shifted([np.nan])):
            with np.errstate(invalid="ignore"), pytest.raises(InvariantViolation):
                build()

    def test_derived_constructions_never_symmetrize(self, monkeypatch):
        """Full validation must not come back on the derived path: with the
        symmetrization disabled, every derived construction still builds."""
        q = GeneralizedQuadratic(2, [[1.0, 0.5], [0.5, -2.0]], [1.0, -1.0], 0.5)
        family = Family(2, CurvatureSpec.nonpos())
        search = FamilySearchGrid.default(family, slope_points=3)

        def refuse(*args):
            raise AssertionError("a derived quadratic was symmetrized")

        monkeypatch.setattr(quadratics, "_symmetrized", refuse)
        GeneralizedQuadratic.zero(2)
        GeneralizedQuadratic.affine([1.0, 2.0], 3.0)
        GeneralizedQuadratic.iso(2, -1.5, [1.0, 0.0], 2.0)
        -q
        2.5 * q
        combine(0.5, q, -1.5, q)
        q + q
        q - q
        q.shifted([0.25, -1.0])
        family.member(-1.0, [1.0, 2.0])
        family.tangent(q, [0.5, 0.5])
        search.member_at(search.size - 1)
        with pytest.raises(AssertionError, match="symmetrized"):
            GeneralizedQuadratic(2, q.A, q.u, q.c)


class TestQuadraticForm:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_einsum_on_batches_of_three_rows_or_more(self, dim, rng):
        # np.einsum is the reference: on three rows or more it sums the
        # products in the kernel's order.
        for rows in (3, 4, 7, 100, 2000):
            A = random_matrix(rng, dim)
            for X in (rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-5, 5, (rows, 1)),
                      rng.choice(SPECIAL, size=(rows, dim))):
                with np.errstate(all="ignore"):
                    ref = np.einsum("ni,ij,nj->n", X, A, X)
                    got = quadratic_form(X, A)
                assert np.array_equal(bits(got), bits(ref))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_same_bits_at_every_batch_size(self, dim, rng):
        A = random_matrix(rng, dim)
        X = np.concatenate([rng.normal(size=(500, dim)), rng.choice(SPECIAL, (500, dim))])
        with np.errstate(all="ignore"):
            full = bits(quadratic_form(X, A))
            for i in range(0, len(X), 37):
                assert bits(quadratic_form(X[i:i + 1], A)) == full[i]
                assert np.array_equal(bits(quadratic_form(X[i:i + 2], A)), full[i:i + 2])
                assert np.array_equal(bits(quadratic_form(X[i:i + 60], A)), full[i:i + 60])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_stack_gets_the_bits_of_one_call_per_matrix(self, dim, rng):
        # Signed zeros in the matrices and the rows, and rows with an
        # infinity (inf * 0 is NaN), round as in the unstacked call.
        As = np.stack([random_matrix(rng, dim) for _ in range(6)])
        As[rng.random(As.shape) < 0.2] = -0.0
        As[0] = 0.0
        Xs = np.concatenate([rng.normal(size=(6, 30, dim)),
                             rng.choice(SPECIAL, size=(6, 30, dim))], axis=1)
        with np.errstate(all="ignore"):
            stacked = quadratic_form(Xs, As)
            assert stacked.shape == (6, 60)
            for p in range(6):
                assert np.array_equal(bits(stacked[p]), bits(quadratic_form(Xs[p], As[p])))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_two_copies_of_a_row_get_its_batch_value(self, dim, rng):
        # A one-row batch q(X[i:i + 1]) may still differ in the last bits:
        # its linear term u.x is a one-row matrix-vector product, which BLAS
        # rounds apart from the batched one.  Two copies of the row do not.
        A = random_matrix(rng, dim)
        q = GeneralizedQuadratic(dim, A, rng.normal(size=dim), float(rng.normal()))
        X = rng.normal(size=(200, dim))
        batch = q(X)
        for i, x in enumerate(X):
            assert q(np.repeat(x[None], 2, 0))[0] == batch[i]


class TestCurvatureSpec:
    def test_label_parse_round_trip(self):
        for spec in (
            CurvatureSpec.zero(),
            CurvatureSpec.nonneg(),
            CurvatureSpec.nonpos(),
            CurvatureSpec.any(),
            CurvatureSpec.fixed(-2.5),
        ):
            assert CurvatureSpec.parse(spec.label()) == spec
        with pytest.raises(InvariantViolation):
            CurvatureSpec.parse("bogus")

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            CurvatureSpec("quadratic-ish")
        with pytest.raises(InvariantViolation):
            CurvatureSpec("fixed")
        with pytest.raises(InvariantViolation):
            CurvatureSpec("zero", value=1.0)

    def test_admits(self):
        assert CurvatureSpec.nonpos().admits(-3.0)
        assert not CurvatureSpec.nonpos().admits(0.5)
        assert CurvatureSpec.zero().admits(0.0)
        assert CurvatureSpec.fixed(2.0).admits(2.0)
        assert not CurvatureSpec.fixed(2.0).admits(1.0)
        assert CurvatureSpec.any().admits(123.4)

    def test_largest_at_most(self):
        assert CurvatureSpec.nonpos().largest_at_most(5.0) == 0.0
        assert CurvatureSpec.nonpos().largest_at_most(-3.0) == -3.0
        assert CurvatureSpec.zero().largest_at_most(1.0) == 0.0
        assert CurvatureSpec.zero().largest_at_most(-1.0) is None
        assert CurvatureSpec.nonneg().largest_at_most(2.0) == 2.0
        assert CurvatureSpec.nonneg().largest_at_most(-1.0) is None
        assert CurvatureSpec.fixed(1.0).largest_at_most(1.5) == 1.0
        assert CurvatureSpec.fixed(1.0).largest_at_most(0.5) is None
        assert CurvatureSpec.any().largest_at_most(-7.0) == -7.0

    def test_grid_respects_kind(self):
        np.testing.assert_array_equal(CurvatureSpec.zero().grid(), [0.0])
        np.testing.assert_array_equal(CurvatureSpec.fixed(2.5).grid(), [2.5])
        g = CurvatureSpec.nonpos().grid(points=11)
        assert g.max() == 0.0 and g.min() == -10.0 and 0.0 in g
        g = CurvatureSpec.nonneg().grid(points=11)
        assert g.min() == 0.0 and g.max() == 10.0
        g = CurvatureSpec.any().grid(points=21)
        assert 0.0 in g  # zero snapped onto the mesh
        assert np.all(np.diff(g) > 0)



SPECS = [CurvatureSpec.zero(), CurvatureSpec.nonneg(), CurvatureSpec.nonpos(),
         CurvatureSpec.any()] + [CurvatureSpec.fixed(v)
                                 for v in (0.0, -0.0, 2.5, -2.5, 20.0, -20.0)]


def _probes() -> list[float]:
    """0, the tolerance and one ulp either side of it, 10 and inf, both signs."""
    pts = [0.0, TOL, math.nextafter(TOL, 0.0), math.nextafter(TOL, math.inf), 10.0, math.inf]
    return pts + [-p for p in pts]


def _bits(value):
    return None if value is None else (type(value), np.float64(value).tobytes())


class TestCurvatureIntervals:
    """The interval table answers every admissibility question with the bits
    of the per-kind chains it replaced (``oracles.*_chain``)."""

    @pytest.mark.parametrize("spec", SPECS, ids=CurvatureSpec.label)
    def test_nearest_admissible_and_admits(self, spec):
        for alpha in _probes():
            assert _bits(spec.nearest_admissible(alpha)) == \
                _bits(oracles.nearest_admissible_chain(spec, alpha)), alpha
            assert spec.admits(alpha) == oracles.admits_chain(spec, alpha), alpha

    @pytest.mark.parametrize("spec", SPECS, ids=CurvatureSpec.label)
    def test_largest_at_most(self, spec):
        for bound in _probes():
            assert _bits(spec.largest_at_most(bound)) == \
                _bits(oracles.largest_at_most_chain(spec, bound)), bound

    @pytest.mark.parametrize("spec", SPECS, ids=CurvatureSpec.label)
    def test_grid(self, spec):
        for points in (1, 2, 3, 11, 20, 21):
            got, want = spec.grid(points), oracles.grid_chain(spec, points)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), points

    @pytest.mark.parametrize("spec", SPECS, ids=CurvatureSpec.label)
    def test_closed_under_differences(self, spec):
        assert spec.closed_under_differences == oracles.closed_under_differences_chain(spec)


class TestFamily:
    def test_member_construction_and_guards(self):
        fam = Family(1, CurvatureSpec.nonpos(), includes_constants=False)
        m = fam.member(-2.0, [1.0])
        assert m(np.array([2.0])) == pytest.approx(-8.0 + 2.0)
        with pytest.raises(InvariantViolation):
            fam.member(1.0, [0.0])  # positive curvature not admissible
        with pytest.raises(InvariantViolation):
            fam.member(-1.0, [0.0], c=3.0)  # constants excluded

    def test_contains(self):
        fam = Family(2, CurvatureSpec.nonpos())
        assert fam.contains(GeneralizedQuadratic.iso(2, -1.0, [1.0, 2.0], 3.0))
        assert fam.contains(GeneralizedQuadratic.affine([1.0, 0.0]))
        assert not fam.contains(GeneralizedQuadratic.iso(2, 0.5))
        # non-isotropic matrix part is rejected even under "any" curvature
        anyfam = Family(2, CurvatureSpec.any())
        aniso = GeneralizedQuadratic(2, [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 0.0)
        assert not anyfam.contains(aniso)
        # dimension mismatch is not membership
        assert not fam.contains(GeneralizedQuadratic.zero(1))

    def test_contains_constant_rule(self):
        noconst = Family(1, CurvatureSpec.nonpos(), includes_constants=False)
        assert noconst.contains(GeneralizedQuadratic.iso(1, -1.0, [2.0], 0.0))
        assert not noconst.contains(GeneralizedQuadratic.iso(1, -1.0, [2.0], 1.0))

    @pytest.mark.parametrize("spec", SPECS, ids=CurvatureSpec.label)
    def test_tangent_is_the_inline_build(self, spec, rng):
        for dim in (1, 2, 3):
            fam = Family(dim, spec)
            for _ in range(20):
                B = rng.normal(size=(dim, dim))
                q = GeneralizedQuadratic(dim, B + B.T, rng.normal(size=dim), rng.normal())
                x = rng.normal(size=dim)
                got, want = fam.tangent(q, x), oracles.tangent_inline(fam, q, x)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.A.tobytes() == want.A.tobytes()
                    assert got.u.tobytes() == want.u.tobytes() and got.c == want.c
                    assert fam.contains(got)

    def test_zero_function_belongs_to_every_class(self):
        z = GeneralizedQuadratic.zero(1)
        for spec in (
            CurvatureSpec.zero(),
            CurvatureSpec.nonneg(),
            CurvatureSpec.nonpos(),
            CurvatureSpec.fixed(3.0),
            CurvatureSpec.any(),
        ):
            assert Family(1, spec, includes_constants=False).contains(z)


class TestLinearMap:
    def test_shape_and_application(self):
        L = LinearMap(np.array([[1.0, -1.0]]))
        assert L.in_dim == 2 and L.out_dim == 1
        np.testing.assert_allclose(L.apply([3.0, 1.0]), [2.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(L.apply(X), [[1.0], [-1.0], [0.0]])

    def test_operator_norm(self):
        assert LinearMap(np.array([[3.0, 4.0]])).operator_norm == pytest.approx(5.0)

    def test_identity(self):
        L = LinearMap.identity(2)
        np.testing.assert_allclose(L.apply([1.5, -2.0]), [1.5, -2.0])

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            LinearMap(np.zeros(3))  # 1-d
        with pytest.raises(InvariantViolation):
            LinearMap(np.array([[np.nan]]))


class TestPullback:
    def test_pullback_evaluates_composition(self, rng):
        L = LinearMap(np.array([[1.0, -1.0], [0.5, 2.0]]))
        q = GeneralizedQuadratic(2, [[1.0, 0.5], [0.5, 2.0]], [1.0, -1.0], 0.3)
        pb = pullback(q, L)
        for _ in range(10):
            x = rng.normal(size=2)
            assert pb(x) == pytest.approx(q(L.apply(x)), rel=1e-12)

    def test_pullback_nonsquare(self, rng):
        L = LinearMap(np.array([[1.0, -1.0]]))  # R^2 -> R^1
        q = GeneralizedQuadratic.iso(1, -1.0, [2.0], -1.0)
        pb = pullback(q, L)
        assert pb.dim == 2
        x = rng.normal(size=2)
        assert pb(x) == pytest.approx(q(L.apply(x)), rel=1e-12)

    def test_pullback_shifted(self, rng):
        L = LinearMap(np.array([[2.0], [1.0]]))  # R^1 -> R^2
        q = GeneralizedQuadratic.iso(2, 1.0, [1.0, -1.0], 0.0)
        y = np.array([0.5, -0.25])
        pb = pullback(q.shifted(y), L)
        x = rng.normal(size=1)
        assert pb(x) == pytest.approx(q(L.apply(x) + y), rel=1e-12)

    def test_pullback_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            pullback(GeneralizedQuadratic.zero(2), LinearMap(np.array([[1.0, 0.0]])))
