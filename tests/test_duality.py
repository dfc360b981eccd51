"""Composite problems, dual sweeps, certificates, epigraph decomposition.

Hand-derived anchors used below (all double-checked against the oracles):

* ``f=(x+1)^2, g=4y^2, L=id`` (inst47): primal 0.8 at x=-0.2; the dual sweep
  attains 0.8 at the affine member with slope -1.6.
* ``f=3x^2+2y^2, g=-(z-1)^2, L=[1,-1]`` (inst48): composite has
  ``A=[[2,1],[1,1]], u=(2,-2), c=-1``; minimum -6 at (-2, 3).
"""

import dataclasses
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_value_contract import weak_duality_members, workload

import abconv
from abconv import (
    Box,
    CurvatureSpec,
    EpiPoint,
    Family,
    FamilySearchGrid,
    GapCertificate,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    InvariantViolation,
    LagrangianContext,
    LinearMap,
    Objective,
    ProblemInstance,
    build_tangent_certificate,
    catalog_instance,
    catalog_names,
    composite_condition_check,
    composite_inf_table,
    conjugate_closed_form,
    coupling_value,
    dcp_value,
    decomposition_condition_check,
    epi_contains,
    epi_decompose,
    family_conjugate_table,
    g_conjugate_table,
    instance_from_dict,
    instance_to_dict,
    lp_value,
    minimize_quadratic,
    perturbation_conjugate_zero,
    primal_value,
    pullback,
    run_report,
    verify_gap_certificate,
    verify_optimality_at,
    weak_duality_check,
)
from abconv import duality, report
from abconv.cli import main
from abconv.duality import (
    ConditionCheck,
    PrimalResult,
    _certificate_terms,
    _check_terms,
    _weak_duality,
)
from abconv.lagrange import support_point_scan, support_point_zero_gap_check
from abconv.report import CERT_LADDER, _certificate_entries

from conftest import infeasible_part_dict

ID1 = LinearMap.identity(1)


def quad_obj(dim, a, u=None, c=0.0, box=None):
    return Objective.quadratic(GeneralizedQuadratic.iso(dim, a, u, c), domain_box=box)


def build(f, g, L=None, phi_spec=None, psi_spec=None, **kw):
    L = ID1 if L is None else L
    phi = Family(L.in_dim, phi_spec or CurvatureSpec.nonpos())
    psi = Family(L.out_dim, psi_spec or CurvatureSpec.zero())
    return ProblemInstance.build(f=f, g=g, L=L, phi=phi, psi=psi, **kw)


class TestProblemInstance:
    def test_dimension_validation(self):
        with pytest.raises(InvariantViolation):
            build(quad_obj(2, 1.0), quad_obj(1, 1.0))  # f dim != L input dim
        with pytest.raises(InvariantViolation):
            build(quad_obj(1, 1.0), quad_obj(2, 1.0))  # g dim != L output dim

    def test_warns_when_nothing_is_feasible_on_the_grid(self):
        g = quad_obj(1, 1.0, box=Box([50.0], [60.0]))
        with pytest.warns(UserWarning, match="no feasible point"):
            build(quad_obj(1, 1.0), g)

    def test_the_warning_names_the_line_that_builds_the_instance(self):
        # Not the dataclass-generated __init__, whose file is "<string>".
        with pytest.warns(UserWarning, match="no feasible point") as read:
            inst = instance_from_dict(infeasible_part_dict("f"))
        assert [Path(w.filename).parent for w in read] == [Path(abconv.__file__).parent]
        fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
        with pytest.warns(UserWarning, match="no feasible point") as direct:
            ProblemInstance(**fields)
        assert [Path(w.filename) for w in direct] == [Path(__file__)]

    def test_no_warning_when_only_the_search_mesh_is_feasible(self):
        # dom f holds (0.5, 0.5), a point of the 41-point mesh of [-10, 10]^2,
        # and no point of a 21-point mesh of the same box.
        f = quad_obj(2, 1.0, box=Box([0.4, 0.4], [0.6, 0.6]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = build(f, quad_obj(2, 1.0), L=LinearMap.identity(2),
                         x_search=GridSpec(Box.cube(2), 41, 2))
        res = primal_value(inst)
        assert res.value == 1.0 and res.minimizer.tolist() == [0.5, 0.5]

    def test_the_output_class_is_stored_once(self, inst47):
        assert [f.name for f in dataclasses.fields(ProblemInstance)] == [
            "f", "g", "L", "phi", "psi_search", "x_search", "y_search", "name"]
        assert inst47.psi is inst47.psi_search.family
        with pytest.raises(AttributeError):
            inst47.psi = Family(1, CurvatureSpec.any())

    def test_a_search_grid_over_another_class_is_rejected(self, inst47):
        """ex4.7's output class is linear: a member grid over every
        curvature would let a curvature -1 member attain the dual."""
        wide = FamilySearchGrid.default(Family(1, CurvatureSpec.any()))
        with pytest.raises(InvariantViolation, match="another class"):
            ProblemInstance.build(f=inst47.f, g=inst47.g, L=inst47.L, phi=inst47.phi,
                                  psi=inst47.psi, psi_search=wide)
        same = FamilySearchGrid.default(inst47.psi, slope_points=11)
        inst = ProblemInstance.build(f=inst47.f, g=inst47.g, L=inst47.L, phi=inst47.phi,
                                     psi=inst47.psi, psi_search=same)
        assert inst.psi == inst47.psi

    def test_composite_quad_frozen(self, inst48):
        comp = inst48.composite_quad()
        np.testing.assert_allclose(comp.A, [[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(comp.u, [2.0, -2.0])
        assert comp.c == -1.0

    def test_composite_objective_callable_path(self):
        f = quad_obj(1, 1.0)
        g = quad_obj(1, 2.0, box=Box([-5.0], [5.0]))
        inst = build(f, g)
        comp = inst.composite_objective()
        assert comp.quad is None
        assert comp.value([1.0]) == pytest.approx(3.0)
        assert comp.value([6.0]) == INF  # outside g's box through L = id

    def test_composite_quad_requires_exact_parts(self):
        inst = build(quad_obj(1, 1.0), quad_obj(1, 1.0, box=Box([-1.0], [1.0])))
        with pytest.raises(InvariantViolation):
            inst.composite_quad()


def counted(q: GeneralizedQuadratic, box: Box, calls: dict, key: str) -> Objective:
    """``q`` on ``box`` behind a callable that counts its evaluations."""

    def fn(x):
        calls[key] += 1
        return float(q(np.asarray(x, dtype=float)))

    return Objective.from_callable(q.dim, fn, domain_box=box)


class TestSearchMeshArrays:
    """f and g o L on the x search mesh: evaluated once per instance and
    shared by every sweep, invisible to equality, repr, serialization and
    ``dataclasses.replace``."""

    X_POINTS = 51

    def counting_instance(self):
        calls = {"f": 0, "g": 0}
        psi = Family(1, CurvatureSpec.nonpos())
        inst = build(
            counted(GeneralizedQuadratic.iso(1, 1.0, [2.0], 1.0), Box([-4.0], [5.0]), calls, "f"),
            counted(GeneralizedQuadratic.iso(1, -0.5, [1.0]), Box([-3.0], [6.0]), calls, "g"),
            L=LinearMap(np.array([[0.8]])),
            psi_spec=CurvatureSpec.nonpos(),
            psi_search=FamilySearchGrid.default(psi, slope_points=15, curvature_points=5),
            x_search=GridSpec(Box.cube(1), self.X_POINTS, 2),
            y_search=GridSpec(Box.cube(1), 41, 2),
        )
        return inst, calls

    def test_a_repeated_request_evaluates_neither_part_on_the_mesh(self):
        inst, calls = self.counting_instance()
        # The build-time check calls each part once per distinct mesh point
        # inside its domain box: 23 of the 51 points for f, 28 for g o L.
        X = inst.x_search.mesh()
        assert len({x.tobytes() for x in X}) == self.X_POINTS
        in_f = int(inst.f.domain_box.contains_batch(X).sum())
        in_g = int(inst.g.domain_box.contains_batch(inst.L.apply(X)).sum())
        assert calls == {"f": in_f, "g": in_g} == {"f": 23, "g": 28}
        run_report(inst, certificates=False)
        dcp_value(inst)
        calls.update(f=0, g=0)
        family_conjugate_table(inst.g, inst.psi_search, grid=inst.y_search)
        per_table = calls["g"]
        calls.update(f=0, g=0)
        run_report(inst, certificates=False)
        dcp_value(inst)
        # Only the y-grid engine of the two g* tables evaluates g; before the
        # shared arrays, f was evaluated on the mesh 4 more times and g 3.
        assert calls == {"f": 0, "g": 2 * per_table}

    def test_a_thm42_check_evaluates_neither_part_on_the_mesh_again(self):
        """A thm42 check calls f at x, and g at Lx and in the y-grid engine
        of the dual's g*(psi): the expected counts come from those calls.
        ``(f + psi o L)*(0)`` is the dual's infimum, read off the instance's
        f on the mesh.  It builds no second instance, whose construction
        evaluated f + psi o L and g on the whole x search mesh once more."""
        inst, calls = self.counting_instance()
        x, psi = np.array([0.4]), GeneralizedQuadratic.iso(1, -0.25, [0.5])
        calls.update(f=0, g=0)
        inst.f.value(x)
        duality._member_inf(inst, psi)
        inst.g.value(inst.L.apply(x))
        duality._member_gstar(inst, psi)
        expected = dict(calls)
        assert expected["f"] == 1 and expected["g"] > 1
        calls.update(f=0, g=0)
        verify_gap_certificate(inst, GapCertificate("thm42", 1e-3, x, psi))
        assert calls == expected

    def test_replace_evaluates_the_new_f_afresh(self):
        inst, _ = self.counting_instance()
        before = inst.f_on_mesh.tobytes()
        other = quad_obj(1, 2.0, [-1.0], 0.5, box=Box([-2.0], [3.0]))
        replaced = dataclasses.replace(inst, f=other)
        fresh = build(other, inst.g, L=inst.L, psi_spec=CurvatureSpec.nonpos(),
                      psi_search=inst.psi_search, x_search=inst.x_search,
                      y_search=inst.y_search)
        assert replaced.f_on_mesh.tobytes() == fresh.f_on_mesh.tobytes() != before
        assert composite_inf_table(replaced).tobytes() == composite_inf_table(fresh).tobytes()
        for phi in (None, GeneralizedQuadratic.iso(1, -1.0, [0.5]), GeneralizedQuadratic.iso(1, -3.0)):
            assert weak_duality_check(replaced, phi) == weak_duality_check(fresh, phi)

    def test_a_weak_duality_check_reads_the_shared_sweeps(self, monkeypatch):
        """At the default member a check calls g only in the y-grid engine of
        one g* table and never calls f: both sides come from the instance's
        mesh arrays, and no second instance is built."""
        inst, calls = self.counting_instance()
        calls.update(f=0, g=0)
        family_conjugate_table(inst.g, inst.psi_search, grid=inst.y_search)
        per_table = calls["g"]
        built, post_init = [], ProblemInstance.__post_init__
        monkeypatch.setattr(ProblemInstance, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        calls.update(f=0, g=0)
        assert weak_duality_check(inst)
        assert calls == {"f": 0, "g": per_table} and built == []

    def test_not_fields(self):
        f = quad_obj(1, 1.0, [2.0], 1.0, box=Box([-4.0], [5.0]))
        inst = build(f, quad_obj(1, 4.0))
        text = repr(instance_to_dict(inst))
        inst.f_on_mesh, inst.g_on_mesh
        assert {"f_on_mesh", "g_on_mesh"}.isdisjoint(
            field.name for field in dataclasses.fields(inst))
        assert "on_mesh" not in repr(inst)
        assert repr(instance_to_dict(inst)) == text
        assert dataclasses.replace(inst) == inst == build(f, quad_obj(1, 4.0))

    def test_read_only_arrays_and_writable_minimizers(self):
        inst, _ = self.counting_instance()
        for arr in (inst.f_on_mesh, inst.g_on_mesh, inst.x_search.mesh()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        mesh = inst.x_search.mesh()
        for x in (primal_value(inst).minimizer, lp_value(LagrangianContext(inst)).minimizer):
            assert x.flags.writeable and not np.shares_memory(x, mesh)


def test_coupling_value_reduces_to_phi_at_zero_perturbation(inst47, rng):
    phi = GeneralizedQuadratic.iso(1, -1.0, [2.0])
    psi = GeneralizedQuadratic.affine([3.0])
    x = rng.normal(size=1)
    assert coupling_value(phi, psi, inst47.L, x, [0.0]) == pytest.approx(
        float(phi(x)), rel=1e-12
    )
    y = rng.normal(size=1)
    expected = float(phi(x)) + float(psi(inst47.L.apply(x) + y)) - float(
        psi(inst47.L.apply(x))
    )
    assert coupling_value(phi, psi, inst47.L, x, y) == pytest.approx(expected, rel=1e-12)


class TestPrimal:
    def test_closed_engine_frozen_value(self, inst47):
        res = primal_value(inst47)
        assert res.engine == "closed" and res.flags == ()
        assert res.value == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(res.minimizer, [-0.2], atol=1e-12)

    def test_grid_engine_flags(self):
        inst = build(quad_obj(1, 1.0, [2.0], 1.0, box=Box([-10.0], [10.0])), quad_obj(1, 4.0))
        res = primal_value(inst)
        assert res.engine == "grid" and "grid_truncated" in res.flags
        assert res.value == pytest.approx(0.8, abs=1e-9)  # -0.2 lies on the mesh

    def test_infeasible_window(self):
        f = quad_obj(1, 1.0, box=Box([50.0], [60.0]))
        with pytest.warns(UserWarning):
            inst = build(f, quad_obj(1, 1.0))
        res = primal_value(inst)
        assert res.value == INF and "infeasible_window" in res.flags

    def test_a_flat_grid_objective_takes_the_first_feasible_mesh_point(self):
        # f = 0 on [0, 1] and g = 0: every feasible point of the mesh
        # -1, -0.5, 0, 0.5, 1 ties, and the first one, 0, is the minimizer.
        f = quad_obj(1, 0.0, box=Box([0.0], [1.0]))
        inst = build(f, quad_obj(1, 0.0), x_search=GridSpec(Box([-1.0], [1.0]), 5, 1))
        res = primal_value(inst)
        assert (res.value, res.minimizer.tolist()) == (0.0, [0.0])

    def test_unbounded_composite(self):
        inst = build(quad_obj(1, -1.0), quad_obj(1, 0.0), psi_spec=CurvatureSpec.nonpos())
        res = primal_value(inst)
        assert res.value == -INF and "unbounded" in res.flags


class TestDualSweep:
    def test_inf_table_matches_per_member_minimization(self, inst47):
        table = composite_inf_table(inst47)
        search = inst47.psi_search
        slopes = search.slopes()
        assert table.shape == (1, 201)
        # closed formula: inf (x+1)^2 + v x = 1 - (2+v)^2 / 4
        np.testing.assert_allclose(
            table[0], 1.0 - (2.0 + slopes[:, 0]) ** 2 / 4.0, atol=1e-10
        )
        for j in (0, 57, 200):
            member = GeneralizedQuadratic.iso(1, search.curvatures[0], slopes[j])
            low, _ = minimize_quadratic(inst47.f.quad + pullback(member, inst47.L))
            assert table[0, j] == pytest.approx(low, abs=1e-10)

    def test_inf_table_grid_path_matches_mesh_minimum(self):
        f = quad_obj(1, 1.0, [2.0], 1.0, box=Box([-10.0], [10.0]))
        inst = build(f, quad_obj(1, 4.0))
        table = composite_inf_table(inst)
        X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
        slopes = inst.psi_search.slopes()
        for j in (0, 100, 200):
            vals = f.values(X) + slopes[j, 0] * X[:, 0]
            assert table[0, j] == pytest.approx(float(vals.min()), abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_tables_match_the_scalar_engine(self, dim):
        # Curvatures -3 .. 0 hit every kind of row in both tables.  g*: rows
        # above -1 have an ascent direction, -1 is an eigenvalue of g.A whose
        # eigenspace (1,-1,0), plus e3 in 3-D, makes most slopes +inf, and
        # the rest are plain.  inf f + psi: rows below -1 are unbounded, -1
        # is an eigenvalue of -f.A with the same eigenspace, and the rest
        # are plain.
        gA = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        fA = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        f = Objective.quadratic(GeneralizedQuadratic(
            dim, fA[:dim, :dim], np.array([0.0, 1.0, -1.0])[:dim], 0.5))
        g = Objective.quadratic(GeneralizedQuadratic(
            dim, gA[:dim, :dim], np.array([1.0, -1.0, 2.0])[:dim], -0.25))
        psi = Family(dim, CurvatureSpec.nonpos())
        search = FamilySearchGrid(
            psi, Box.cube(dim, -3.0, 3.0), 7, (-3.0, -2.0, -1.0, -0.5, 0.0)
        )
        inst = build(f, g, L=LinearMap.identity(dim), psi_spec=CurvatureSpec.nonpos(),
                     psi_search=search)
        inf_table = composite_inf_table(inst)
        gstar_table = g_conjugate_table(inst)
        slopes = search.slopes()
        for table, scalar, bad in (
            (inf_table,
             lambda m: minimize_quadratic(f.quad + pullback(m, inst.L))[0], -INF),
            (gstar_table, lambda m: conjugate_closed_form(g, m).value, INF),
        ):
            assert table.shape == (5, len(slopes))
            expected = np.array([
                [scalar(GeneralizedQuadratic.iso(dim, beta, s)) for s in slopes]
                for beta in search.curvatures
            ])
            np.testing.assert_array_equal(table == bad, expected == bad)
            ok = table != bad
            np.testing.assert_allclose(table[ok], expected[ok], rtol=1e-9, atol=1e-9)
            kinds = {(bool(np.all(row == bad)), bool(np.any(row == bad)))
                     for row in table}
            assert kinds == {(True, True), (False, True), (False, False)}

    def test_gstar_table_matches_closed_conjugates(self, inst47):
        table = g_conjugate_table(inst47)
        slopes = inst47.psi_search.slopes()[:, 0]
        np.testing.assert_allclose(table[0], slopes**2 / 16.0, atol=1e-10)

    def test_blackbox_gstar_table_dominates_image_samples(self):
        quad = GeneralizedQuadratic.iso(1, 4.0)
        g = Objective.from_callable(
            1, lambda y: float(quad(np.asarray(y, dtype=float))),
            domain_box=Box([-10.0], [10.0]),
        )
        inst = build(quad_obj(1, 1.0, [2.0], 1.0), g)
        table = g_conjugate_table(inst)
        X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
        Y = inst.L.apply(X)
        gv = g.values(Y)
        slopes = inst.psi_search.slopes()
        lin = Y @ slopes.T
        for j in (0, 50, 150, 200):
            sampled = float(np.max(lin[:, j] - gv))
            assert table[0, j] >= sampled - 1e-12

    def test_dcp_frozen_value_and_attaining_member(self, inst47):
        res = dcp_value(inst47)
        assert res.engine == "closed"
        assert res.value == pytest.approx(0.8, abs=1e-12)
        assert res.excluded_infeasible == 0 and res.excluded_unbounded == 0
        np.testing.assert_allclose(res.attaining.A, [[0.0]])
        np.testing.assert_allclose(res.attaining.u, [-1.6])

    def test_dcp_matches_independent_sweep_oracle(self, inst47):
        slopes = [float(s) for s in inst47.psi_search.slopes()[:, 0]]
        brute = oracles.dual_sweep_brute(
            [[1.0]], [2.0], 1.0, [[4.0]], [0.0], 0.0, [[1.0]],
            list(inst47.psi_search.curvatures), slopes, -10.0, 10.0,
        )
        assert dcp_value(inst47).value == pytest.approx(brute, abs=1e-9)

    def test_all_members_excluded(self):
        inst = build(Objective.quadratic(GeneralizedQuadratic.affine([1.0])), quad_obj(1, 0.0))
        res = dcp_value(inst)
        assert res.value == -INF and res.attaining is None
        assert res.flags == ("all_members_excluded",)
        assert res.excluded_infeasible == 200  # every slope except 0
        assert res.excluded_unbounded == 200  # every slope except -1

    def test_weak_duality_on_frozen_instances(self, inst47, inst48):
        for inst in (inst47, inst48):
            rep = run_report(inst, certificates=False)
            assert rep["gap"] >= -1e-9
            assert "weak_duality_violated" not in rep["flags"]

    def test_report_gap_is_inf_when_dual_diverges(self):
        inst = build(Objective.quadratic(GeneralizedQuadratic.affine([1.0])), quad_obj(1, 0.0))
        rep = run_report(inst, certificates=False)
        assert rep["dcp"] == -INF and rep["gap"] == INF
        assert "weak_duality_violated" not in rep["flags"]


class TestPerturbationConjugate:
    def test_zero_member_of_inst47(self, inst47):
        assert perturbation_conjugate_zero(
            inst47, GeneralizedQuadratic.zero(1)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_negates_dual_objective(self, inst47):
        psi = GeneralizedQuadratic.affine([-1.6])
        # dual objective at psi: inf(f + psi o L) - g*(psi)
        low, _ = minimize_quadratic(inst47.f.quad + pullback(psi, inst47.L))
        gstar = (psi.u[0]) ** 2 / 16.0
        assert perturbation_conjugate_zero(inst47, psi) == pytest.approx(
            -(low - gstar), abs=1e-10
        )

    def test_rejects_non_members(self, inst47):
        with pytest.raises(InvariantViolation):
            perturbation_conjugate_zero(inst47, GeneralizedQuadratic.iso(1, -1.0))

    def test_every_member_of_an_infeasible_g_is_excluded(self):
        """g boxed off its meshes: every g* is -inf, which the dual sweep
        excludes, so the negated dual objective is +inf at every member."""
        with pytest.warns(UserWarning, match="no feasible point"):
            inst = instance_from_dict(infeasible_part_dict("g"))
        search = inst.psi_search
        assert [perturbation_conjugate_zero(inst, search.member_at(k))
                for k in range(search.size)] == [INF] * search.size


@pytest.fixture(scope="module")
def gridbox_duals():
    """The benchmark's gridbox pools at seeds 11, 1 and 2, each instance
    with its dual."""
    return {seed: [(inst, dcp_value(inst)) for inst in workload("gridbox")(abconv, seed).pool]
            for seed in (11, 1, 2)}


def _f64(value) -> bytes:
    return np.float64(value).tobytes()


class TestOneDualObjectivePerMember:
    """Every one-member reader of the dual's two terms, ``inf_x f + psi o L``
    and ``g*(psi)``, takes them from ``_member_inf`` and ``_member_gstar``,
    the one-member twins of the dual sweep's tables."""

    def test_the_perturbation_conjugate_negates_the_dual_where_it_attains(self, gridbox_duals):
        for seed, pool in gridbox_duals.items():
            for inst, d in pool:
                value = -perturbation_conjugate_zero(inst, d.attaining)
                assert abs(value - d.value) <= 1e-12 * max(1.0, abs(d.value)), (seed, inst.name)

    def test_thm42_at_the_attaining_member_holds_iff_the_gap_closes(self, gridbox_duals):
        for seed, pool in gridbox_duals.items():
            for inst, d in pool:
                p = primal_value(inst)
                cert = GapCertificate("thm42", 1e-3, p.minimizer, d.attaining)
                gap = _weak_duality(p.value, d.value)[0]
                holds = verify_gap_certificate(inst, cert).holds
                assert holds == (gap <= 1e-3), (seed, inst.name)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_every_reader_takes_the_one_definition(self, gridbox_duals, where):
        for inst, _ in gridbox_duals[11]:
            search = inst.psi_search
            psi = search.member_at({"first": 0, "middle": search.size // 2,
                                    "last": search.size - 1}[where])
            low, gstar = duality._member_inf(inst, psi), duality._member_gstar(inst, psi)
            x = primal_value(inst).minimizer
            terms = _certificate_terms(inst, GapCertificate("thm42", 1e-3, x, psi))
            assert _f64(terms["conjugate_at_zero"]) == _f64(-low)
            assert _f64(terms["psi_subgradient"][1]) == _f64(gstar)
            check = decomposition_condition_check(inst, "b", psi=psi)
            assert _f64(check.details["gstar"]) == _f64(gstar)
            assert epi_contains(inst, "g", EpiPoint(psi, gstar), tol=0.0)
            assert not epi_contains(inst, "g", EpiPoint(psi, np.nextafter(gstar, -INF)), tol=0.0)
            scan = support_point_scan(LagrangianContext(inst), psi, x[None], 0.0)
            assert scan.details["inf_f_plus_psi"].tobytes() == _f64(low)


class TestWeakDualityCheck:
    def test_holds_at_default_and_explicit_members(self, inst47):
        assert weak_duality_check(inst47)
        assert weak_duality_check(inst47, GeneralizedQuadratic.iso(1, -1.0, [2.0]))

    def test_holds_on_grid_instance(self):
        inst = build(quad_obj(1, 1.0, [2.0], 1.0, box=Box([-10.0], [10.0])), quad_obj(1, 4.0))
        assert weak_duality_check(inst)

    def test_a_gap_of_exactly_minus_value_tol_holds(self):
        """A breach is a gap below ``-VALUE_TOL``, not at it."""
        assert _weak_duality(0.0, 1e-6) == (-1e-6, True)
        assert not _weak_duality(0.0, 1.5e-6)[1]

    def test_a_pair_of_plus_and_minus_infinity_sums_to_plus_infinity(self, monkeypatch):
        # lhs = (2x^2)*(0) = 0.  The member pairing (f + psi o L)* = +inf
        # with g* = -inf must not set the minimum: only the other pair can.
        inst = build(quad_obj(1, 1.0), quad_obj(1, 1.0), psi_search=FamilySearchGrid(
            Family(1, CurvatureSpec.zero()), Box.cube(1, -1.0, 1.0), 2, (0.0,)))
        monkeypatch.setattr(duality, "composite_inf_table", lambda _: np.array([[-INF, -1.0]]))
        for gstar, holds in ((0.5, True), (-2.0, False)):
            monkeypatch.setattr(duality, "g_conjugate_table",
                                lambda _, v=gstar: np.array([[-INF, v]]))
            assert weak_duality_check(inst) is holds

    def test_holds_on_the_gridbox_pool_and_matches_the_report(self):
        for inst in workload("gridbox")(abconv, 11).pool:
            for phi in weak_duality_members(inst.L.in_dim):
                assert weak_duality_check(inst, phi), (inst.name, phi)
            ok = run_report(inst, certificates=False)["weak_duality_ok"]
            assert weak_duality_check(inst) is ok

    def test_a_minus_infinity_primal_under_a_finite_dual_is_a_violation(
            self, inst47, monkeypatch, capsys):
        monkeypatch.setattr(report, "primal_value",
                            lambda _: PrimalResult(-INF, None, "closed", ("unbounded",)))
        rep = run_report(inst47, certificates=False)
        assert rep["primal"] == -INF and np.isfinite(rep["dcp"]) and rep["gap"] == -INF
        assert not rep["weak_duality_ok"] and "weak_duality_violated" in rep["flags"]
        assert main(["gap", "ex4.7"]) == 3
        assert capsys.readouterr().out.splitlines()[-1].endswith("VIOLATED")


class TestCompositeConditionCheck:
    def test_difference_and_sum_inside_class(self, inst47):
        psi = GeneralizedQuadratic.affine([-1.6])
        assert composite_condition_check(inst47, GeneralizedQuadratic.zero(1), psi)
        assert composite_condition_check(
            inst47, GeneralizedQuadratic.zero(1), psi, variant="sum"
        )

    def test_curved_difference_leaves_zero_class(self, inst47r):
        psi = GeneralizedQuadratic.iso(1, -0.5, [-1.8])
        assert not composite_condition_check(inst47r, GeneralizedQuadratic.zero(1), psi)
        assert not composite_condition_check(
            inst47r, GeneralizedQuadratic.zero(1), psi, variant="sum"
        )

    def test_unknown_variant(self, inst47):
        with pytest.raises(InvariantViolation):
            composite_condition_check(
                inst47, GeneralizedQuadratic.zero(1), GeneralizedQuadratic.zero(1),
                variant="product",
            )


class TestGapCertificates:
    def test_certificate_validation(self):
        with pytest.raises(InvariantViolation):
            GapCertificate("thm99", 0.1, [0.0], GeneralizedQuadratic.zero(1))
        with pytest.raises(InvariantViolation):
            GapCertificate("thm42", -0.1, [0.0], GeneralizedQuadratic.zero(1))
        with pytest.raises(InvariantViolation, match="thm43 needs phi"):
            GapCertificate("thm43", 0.1, [0.0], GeneralizedQuadratic.zero(1))

    def test_a_thm42_certificate_takes_no_phi(self, inst48):
        """The kind says whether phi is given: a thm42 check would ignore a
        phi, here one outside the input class, and hold."""
        psi, phi = GeneralizedQuadratic.iso(1, -1.0, [2.0]), GeneralizedQuadratic.iso(2, 5.0)
        assert not inst48.phi.contains(phi)
        with pytest.raises(InvariantViolation, match="thm42 takes no phi"):
            GapCertificate("thm42", 1e-3, [-2.0, 3.0], psi, phi)
        assert verify_gap_certificate(inst48, GapCertificate("thm42", 1e-3, [-2.0, 3.0], psi)).holds

    @pytest.mark.parametrize("eps", [INF, float("nan")])
    def test_a_non_finite_eps_is_rejected(self, eps):
        """At eps = inf every condition would hold vacuously."""
        with pytest.raises(InvariantViolation, match="finite"):
            GapCertificate("thm42", eps, [0.0], GeneralizedQuadratic.zero(1))

    def test_thm42_frozen_certificate_holds(self, inst48):
        cert = GapCertificate(
            "thm42", 1e-3, [-2.0, 3.0], GeneralizedQuadratic.iso(1, -1.0, [2.0])
        )
        check = verify_gap_certificate(inst48, cert)
        assert check.holds and all(check.conditions.values())
        assert check.details["conjugate_at_zero"] == pytest.approx(5.0, abs=1e-9)
        assert check.details["bound"] == pytest.approx(5.0 + 1e-3, abs=1e-12)

    def test_thm42_fails_away_from_the_minimizer(self, inst48):
        cert = GapCertificate(
            "thm42", 1e-3, [0.0, 0.0], GeneralizedQuadratic.iso(1, -1.0, [2.0])
        )
        check = verify_gap_certificate(inst48, cert)
        assert not check.holds
        assert not check.conditions["conjugate_bound"]
        assert check.conditions["psi_subgradient"]  # tangency is global here

    def test_psi_outside_family_fails(self, inst48):
        cert = GapCertificate(
            "thm42", 1e-3, [-2.0, 3.0], GeneralizedQuadratic.iso(1, 1.0, [2.0])
        )
        check = verify_gap_certificate(inst48, cert)
        assert not check.holds and not check.conditions["psi_in_family"]

    def test_point_outside_dom_f_raises(self):
        f = quad_obj(1, 1.0, box=Box([-1.0], [1.0]))
        inst = build(f, quad_obj(1, 4.0))
        cert = GapCertificate("thm42", 0.1, [5.0], GeneralizedQuadratic.zero(1))
        with pytest.raises(InvariantViolation, match="outside dom f"):
            verify_gap_certificate(inst, cert)

    @pytest.mark.parametrize("kind", ["thm42", "thm43"])
    def test_a_point_mapped_outside_dom_g_names_g_and_lx(self, kind):
        """f(5) is finite; g = 4y^2 on [-1, 1] is +inf at L 5 = 5."""
        inst = build(quad_obj(1, 1.0, [2.0], 1.0), quad_obj(1, 4.0, box=Box([-1.0], [1.0])))
        zero = GeneralizedQuadratic.zero(1)
        cert = GapCertificate(kind, 0.1, [5.0], zero, zero if kind == "thm43" else None)
        assert inst.f.value([5.0]) == 36.0
        with pytest.raises(InvariantViolation, match=r"outside dom g: Lx = \[5\.0\]"):
            verify_gap_certificate(inst, cert)

    def test_thm43_tangent_pair_is_exact(self, inst47):
        cert = build_tangent_certificate(inst47, [-0.2], eps=0.0)
        assert cert is not None and cert.kind == "thm43"
        np.testing.assert_allclose(cert.psi.u, [-1.6])
        np.testing.assert_allclose(cert.phi.u, [1.6])
        assert (cert.phi + pullback(cert.psi, inst47.L)).is_zero()
        check = verify_gap_certificate(inst47, cert)
        assert check.holds
        assert check.details["sum_min"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", catalog_names())
    def test_tangent_psi_is_the_inline_build(self, name, rng):
        inst = catalog_instance(name)
        for x in rng.uniform(-3.0, 3.0, size=(5, inst.L.in_dim)):
            cert = build_tangent_certificate(inst, x, 0.0, kind="thm42")
            if inst.g.exact is None:
                assert cert is None
                continue
            want = oracles.tangent_inline(inst.psi, inst.g.exact, inst.L.apply(x))
            assert (cert is None) == (want is None)
            if cert is not None:
                assert cert.psi.A.tobytes() == want.A.tobytes()
                assert cert.psi.u.tobytes() == want.u.tobytes()

    def test_tangent_construction_fails_without_admissible_curvature(self):
        inst = build(quad_obj(1, 1.0), quad_obj(1, -1.0))  # g concave, zero class
        assert build_tangent_certificate(inst, [0.0], 0.1) is None

    def test_tangent_thm43_needs_partner_in_input_class(self):
        inst = build(
            quad_obj(1, 1.0), quad_obj(1, 4.0),
            phi_spec=CurvatureSpec.zero(), psi_spec=CurvatureSpec.fixed(-1.0),
        )
        assert build_tangent_certificate(inst, [0.0], 0.1) is None
        cert42 = build_tangent_certificate(inst, [0.0], 0.1, kind="thm42")
        assert cert42 is not None and cert42.kind == "thm42"


class TestVerifyOptimalityAt:
    def test_ladder_at_the_minimizer(self, inst47):
        check = verify_optimality_at(inst47, [-0.2])
        assert check.holds
        assert check.value_at_x == pytest.approx(0.8, abs=1e-12)
        assert check.primal == pytest.approx(0.8, abs=1e-12)
        assert len(check.ladder) == 7 and all(ok for _, ok in check.ladder)

    def test_fails_off_the_minimizer(self, inst47):
        assert not verify_optimality_at(inst47, [0.0]).holds

    def test_explicit_certificates(self, inst47):
        cert = build_tangent_certificate(inst47, [-0.2], 1e-4)
        check = verify_optimality_at(inst47, [-0.2], certs=(cert,))
        assert check.holds and check.ladder == ((1e-4, True),)

    def test_certificates_must_share_the_point(self, inst47):
        cert = build_tangent_certificate(inst47, [0.5], 1e-4)
        with pytest.raises(InvariantViolation):
            verify_optimality_at(inst47, [-0.2], certs=(cert,))

    @pytest.mark.parametrize("empty", [{"eps_ladder": ()}, {"certs": ()}])
    def test_an_empty_ladder_is_rejected(self, inst47, empty):
        """A ladder with no rung checks nothing, so it cannot certify x."""
        with pytest.raises(InvariantViolation, match="empty certificate ladder"):
            verify_optimality_at(inst47, [-0.2], **empty)

    @pytest.mark.parametrize("ladder", [
        (INF,), (1.0, -1e-3, INF), (1.0, -1e-3), (1e-2, float("nan")), (-INF,),
    ])
    @pytest.mark.parametrize("boxed_g", [False, True])
    def test_a_bad_ladder_eps_is_rejected_first(self, inst47, ladder, boxed_g, monkeypatch):
        """A negative, NaN or infinite eps is rejected before anything is
        built, whether or not a tangent certificate exists at x (a boxed g
        has none)."""
        inst = inst47
        if boxed_g:
            g = Objective.quadratic(inst47.g.exact, domain_box=Box([-10.0], [10.0]))
            inst = dataclasses.replace(inst47, g=g)
        x = [-0.2]
        assert (duality._tangent_ladder(inst, x, (1.0,))[0] is None) == boxed_g

        def refuse(*args, **kwargs):
            raise AssertionError("built before the ladder was checked")

        monkeypatch.setattr(duality, "_tangent_ladder", refuse)
        monkeypatch.setattr(duality, "primal_value", refuse)
        with pytest.raises(InvariantViolation, match="ladder eps must be finite"):
            verify_optimality_at(inst, x, eps_ladder=ladder)


def _bits(check):
    """A certificate check's verdict, conditions and details, floats as bytes."""
    details = {k: np.float64(v).tobytes() for k, v in check.details.items()}
    return check.holds, check.kind, dict(check.conditions), details


def _one_certificate_check(inst, x, eps):
    """The rung as a lone certificate: thm43 if it can be built, else thm42."""
    for kind in ("thm43", "thm42"):
        cert = build_tangent_certificate(inst, x, eps, kind=kind)
        if cert is not None:
            return verify_gap_certificate(inst, cert)
    return None


DEFAULT_OPTIMALITY_LADDER = (
    inspect.signature(verify_optimality_at).parameters["eps_ladder"].default
)


class TestCertificateLadders:
    """A ladder computes each certificate's eps-free terms once; every rung
    must equal the same certificate checked on its own."""

    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("offset", [0.0, 0.01])
    def test_report_rungs_equal_lone_certificates(self, name, offset):
        inst = catalog_instance(name)
        x = primal_value(inst).minimizer + offset
        entries = _certificate_entries(inst, x)
        assert [e["eps"] for e in entries] == list(CERT_LADDER)
        # off the minimizer the loose rungs hold and the tight ones do not
        assert {e["holds"] for e in entries} == ({True, False} if offset else {True})
        for entry in entries:
            check = _one_certificate_check(inst, x, entry["eps"])
            assert entry["kind"] == check.kind
            assert entry["holds"] == check.holds
            assert entry["conditions"] == check.conditions
            assert list(entry["conditions"]) == list(check.conditions)

    @pytest.mark.parametrize("x0", [-0.2, -0.19])
    def test_default_optimality_rungs_equal_lone_certificates(self, inst47, x0):
        x = np.array([x0])
        assert len(DEFAULT_OPTIMALITY_LADDER) == 7
        terms = _certificate_terms(
            inst47, build_tangent_certificate(inst47, x, DEFAULT_OPTIMALITY_LADDER[0]))
        ladder = verify_optimality_at(inst47, x).ladder
        assert [eps for eps, _ in ladder] == list(DEFAULT_OPTIMALITY_LADDER)
        as_array = np.array(DEFAULT_OPTIMALITY_LADDER)
        assert verify_optimality_at(inst47, x, eps_ladder=as_array).ladder == ladder
        for eps, ok in ladder:
            lone = _one_certificate_check(inst47, x, eps)
            assert ok == lone.holds
            assert _bits(_check_terms(terms, eps)) == _bits(lone)
        assert {ok for _, ok in ladder} == ({True} if x0 == -0.2 else {True, False})

    def test_rungs_with_different_members(self, inst47):
        x = [-0.2]
        tangent = build_tangent_certificate(inst47, x, 1.0)
        other = GeneralizedQuadratic.affine([-1.0])
        certs = (
            tangent,
            GapCertificate("thm42", 1e-6, x, tangent.psi),
            GapCertificate("thm42", 1e-3, x, other),
            dataclasses.replace(tangent, eps=1e-6),
            GapCertificate("thm42", 1.0, x, other),
        )
        ladder = verify_optimality_at(inst47, x, certs=certs).ladder
        lone = tuple((c.eps, verify_gap_certificate(inst47, c).holds) for c in certs)
        assert ladder == lone
        assert {ok for _, ok in ladder} == {True, False}

    def test_negative_rung_raises(self, inst47):
        with pytest.raises(InvariantViolation):
            verify_optimality_at(inst47, [-0.2], eps_ladder=(1.0, -1e-3, 1e-6))

    def test_no_tangent_member_gives_one_note_per_rung(self):
        inst = build(quad_obj(1, 1.0), quad_obj(1, -1.0))  # g concave, zero class
        x = primal_value(inst).minimizer
        assert _certificate_entries(inst, x) == [
            {"eps": eps, "kind": None, "holds": False,
             "note": "no tangent member available"}
            for eps in CERT_LADDER
        ]
        ladder = verify_optimality_at(inst, x).ladder
        assert ladder == tuple((eps, False) for eps in DEFAULT_OPTIMALITY_LADDER)


class TestEpiContains:
    def test_frozen_composite_and_part_levels(self, inst56):
        phi = GeneralizedQuadratic.affine([1.0, 1.0])
        assert epi_contains(inst56, "composite", EpiPoint(phi, 0.1))
        assert not epi_contains(inst56, "composite", EpiPoint(phi, 0.09))
        assert epi_contains(inst56, "f", EpiPoint(phi, 0.5))
        assert not epi_contains(inst56, "f", EpiPoint(phi, 0.49))
        psi = GeneralizedQuadratic.affine([1.0])
        assert epi_contains(inst56, "g", EpiPoint(psi, 0.125))
        assert epi_contains(inst56, "g_of_L", EpiPoint(phi, 0.125))
        assert not epi_contains(inst56, "g_of_L", EpiPoint(phi, 0.12))

    def test_unknown_target_and_foreign_member(self, inst56):
        phi = GeneralizedQuadratic.affine([1.0, 1.0])
        with pytest.raises(InvariantViolation):
            epi_contains(inst56, "h", EpiPoint(phi, 1.0))
        curved_up = GeneralizedQuadratic.iso(2, 1.0)
        with pytest.raises(InvariantViolation):
            epi_contains(inst56, "composite", EpiPoint(curved_up, 100.0))


class TestEpiDecompose:
    def test_frozen_split_takes_the_zero_member(self, inst56):
        point = EpiPoint(GeneralizedQuadratic.affine([1.0, 1.0]), 1.0)
        split = epi_decompose(inst56, point)
        assert split is not None
        assert split.psi.is_zero(1e-12)
        assert split.c_psi == pytest.approx(0.0, abs=1e-12)
        assert split.c_phi == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(split.phi1.u, [1.0, 1.0])
        assert epi_contains(inst56, "f", EpiPoint(split.phi1, split.c_phi))
        assert epi_contains(inst56, "g", EpiPoint(split.psi, split.c_psi))

    def test_point_outside_epigraph_raises(self, inst56):
        point = EpiPoint(GeneralizedQuadratic.affine([1.0, 1.0]), -5.0)
        with pytest.raises(InvariantViolation):
            epi_decompose(inst56, point)

    @pytest.mark.parametrize("curvatures,first", [((-1.0, 1.0), -1.0), ((1.0, -1.0), 1.0)])
    def test_tied_norms_take_the_first_member_in_table_order(self, curvatures, first):
        # Every member decomposes the pair; the slope-0 members of both
        # curvatures tie at the least norm, and the first curvature wins.
        inst = build(quad_obj(1, 10.0), quad_obj(1, 10.0),
                     phi_spec=CurvatureSpec.any(), psi_spec=CurvatureSpec.any(),
                     psi_search=FamilySearchGrid(Family(1, CurvatureSpec.any()),
                                                 Box.cube(1, -1.0, 1.0), 3, curvatures))
        split = epi_decompose(inst, EpiPoint(GeneralizedQuadratic.zero(1), 1000.0))
        assert (split.psi.A[0, 0], split.psi.u[0]) == (first, 0.0)
        inst = dataclasses.replace(inst, psi_search=FamilySearchGrid(
            Family(1, CurvatureSpec.any()), Box.cube(1, -1.0, 1.0), 2, curvatures))
        split = epi_decompose(inst, EpiPoint(GeneralizedQuadratic.zero(1), 1000.0))
        assert (split.psi.A[0, 0], split.psi.u[0]) == (first, -1.0)

    def test_returns_none_when_every_member_is_infeasible(self):
        inst = build(
            quad_obj(1, 1.0), quad_obj(1, -1.0), phi_spec=CurvatureSpec.zero()
        )
        split = epi_decompose(inst, EpiPoint(GeneralizedQuadratic.zero(1), 0.5))
        assert split is None


def boxed_negative_square(m: int, callable_g: bool) -> ProblemInstance:
    """g = -|y|^2 on [-3, 2]^m, as a quadratic or behind a callable, with
    psi members of curvature -2, -1 and 0 on a 5-point slope mesh."""
    gq, box = GeneralizedQuadratic.iso(m, -1.0), Box.cube(m, -3.0, 2.0)
    g = (Objective.from_callable(m, lambda y: float(gq(np.asarray(y))), domain_box=box)
         if callable_g else Objective.quadratic(gq, domain_box=box))
    psi = Family(m, CurvatureSpec.nonpos())
    return ProblemInstance.build(
        f=quad_obj(m, 1.0), g=g, L=LinearMap.identity(m),
        phi=Family(m, CurvatureSpec.nonpos()), psi=psi,
        psi_search=FamilySearchGrid(psi, Box.cube(m), 5, (-2.0, -1.0, 0.0)),
        x_search=GridSpec(Box.cube(m), {1: 31, 2: 11}[m], 2),
        y_search=GridSpec(Box.cube(m), {1: 21, 2: 7}[m], 1))


class TestDecompositionConditions:
    def test_condition_a_holds_on_inst47(self, inst47):
        check = decomposition_condition_check(
            inst47, "a", phi=GeneralizedQuadratic.zero(1), r=0.0
        )
        assert check.holds and check.conditions["majorizing_psi_found"]
        assert check.details["psi_curvature"] == 0.0
        assert check.details["psi_slope_norm"] == 0.0

    def test_condition_a_fails_with_frozen_violation(self):
        # g = (y-2)^2; members with g* <= r have slopes in [-7.16, -0.84],
        # none of which majorizes phi = -x^2; nearest miss is at slope -0.9.
        inst = build(quad_obj(1, 1.0), quad_obj(1, 1.0, [-4.0], 4.0))
        phi = GeneralizedQuadratic.iso(1, -1.0)
        check = decomposition_condition_check(inst, "a", phi=phi, r=-1.5)
        assert not check.holds
        assert check.details["smallest_violation"] == pytest.approx(0.2025, abs=1e-9)

    def test_condition_a_guards(self, inst47):
        with pytest.raises(InvariantViolation):
            decomposition_condition_check(inst47, "a", phi=GeneralizedQuadratic.zero(1))
        with pytest.raises(InvariantViolation):
            decomposition_condition_check(
                inst47, "a", phi=GeneralizedQuadratic.zero(1), r=-1.0
            )

    def test_condition_b_explicit_self_member(self, inst610):
        check = decomposition_condition_check(inst610, "b", psi=inst610.g.quad)
        assert check.holds
        assert check.conditions["gstar_nonpositive"]
        assert check.conditions["majorizes_g_of_L"]
        assert check.details["gstar"] == pytest.approx(0.0, abs=1e-9)

    def test_condition_b_grid_search_finds_square(self):
        inst = build(
            quad_obj(1, 1.0), quad_obj(1, 1.0), psi_spec=CurvatureSpec.nonneg()
        )
        check = decomposition_condition_check(inst, "b")
        assert check.holds
        assert check.details["psi_curvature"] == pytest.approx(1.0)
        assert check.details["psi_slope_norm"] == pytest.approx(0.0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("callable_g", [False, True])
    def test_condition_b_grid_search_on_a_boxed_g(self, m, callable_g):
        # g = -|y|^2 on a box: the only admissible member is g's own
        # quadratic, the slope-0 member of curvature -1.
        inst = boxed_negative_square(m, callable_g)
        check = decomposition_condition_check(inst, "b")
        assert check.holds and check.conditions == {"majorizing_psi_found": True}
        assert check.details == {"psi_curvature": -1.0, "psi_slope_norm": 0.0}
        inst = dataclasses.replace(inst, psi_search=dataclasses.replace(
            inst.psi_search, curvatures=(-2.0, 0.0)))
        check = decomposition_condition_check(inst, "b")
        assert not check.holds
        assert check.conditions == {"majorizing_psi_found": False} and check.details == {}

    def test_condition_b_grid_search_finds_the_member_the_member_loop_finds(self, gridbox_duals):
        """The grid search reads the g* table; the reference checks one
        member after another with the given-psi check, which reads
        ``_member_gstar``."""
        with pytest.warns(UserWarning, match="no feasible point"):
            infeasible = instance_from_dict(infeasible_part_dict("g"))
        instances = ([gridbox_duals[11][0][0]]
                     + [catalog_instance(name) for name in catalog_names()]
                     + [boxed_negative_square(m, c) for m in (1, 2) for c in (False, True)]
                     + [infeasible])
        for inst in instances:
            want = oracles.condition_b_dense(inst)
            check = decomposition_condition_check(inst, "b")
            assert check.holds == (want is not None), inst.name
            if want is not None:
                assert check.details == {"psi_curvature": float(want.A[0, 0]),
                                         "psi_slope_norm": float(np.linalg.norm(want.u))}

    @pytest.mark.parametrize("given", [False, True])
    def test_condition_b_excludes_a_member_whose_gstar_is_not_finite(self, given):
        # g boxed off its meshes: every g* entry is -inf, which excludes its
        # member from every sweep, and (b) finds no member either.
        with pytest.warns(UserWarning, match="no feasible point"):
            inst = instance_from_dict(infeasible_part_dict("g"))
        assert "all_members_excluded" in dcp_value(inst).flags
        if not given:
            check = decomposition_condition_check(inst, "b")
            assert not check.holds and check.conditions == {"majorizing_psi_found": False}
            return
        check = decomposition_condition_check(inst, "b", psi=inst.psi_search.member_at(0))
        assert not check.holds and not check.conditions["gstar_nonpositive"]
        assert check.details["gstar"] == -INF

    def test_condition_b_grid_search_fails_without_constants(self, inst610):
        check = decomposition_condition_check(inst610, "b")
        assert not check.holds and not check.conditions["majorizing_psi_found"]

    def test_condition_c_exact_minorants(self, inst610):
        phi = GeneralizedQuadratic.iso(1, -1.0, [1.0])
        psi = GeneralizedQuadratic.affine([1.0])
        check = decomposition_condition_check(inst610, "c", phi=phi, psi=psi)
        assert check.holds
        assert check.details["difference_minorant_slack"] == pytest.approx(0.0, abs=1e-12)
        assert check.details["pullback_minorant_slack"] == pytest.approx(0.0, abs=1e-12)

    def test_condition_c_fails_for_negative_constant_without_constants(self, inst47):
        # psi carries a constant, so the output class must admit constants;
        # the input class of ex4.7 does not.
        inst = ProblemInstance.build(
            f=inst47.f, g=inst47.g, L=inst47.L, phi=inst47.phi,
            psi=Family(1, CurvatureSpec.zero(), includes_constants=True))
        phi = GeneralizedQuadratic.iso(1, -1.0)
        psi = GeneralizedQuadratic.affine([1.0], -1.0)
        check = decomposition_condition_check(inst, "c", phi=phi, psi=psi)
        assert not check.holds
        assert check.conditions["difference_has_minorant"]
        assert not check.conditions["pullback_has_minorant"]

    def test_condition_c_guards(self, inst47):
        with pytest.raises(InvariantViolation):
            decomposition_condition_check(inst47, "c", phi=GeneralizedQuadratic.zero(1))
        with pytest.raises(InvariantViolation):
            decomposition_condition_check(
                inst47, "c",
                phi=GeneralizedQuadratic.zero(1),
                psi=GeneralizedQuadratic.zero(1),
                r=-1.0,  # not in the composite epigraph (min value is 0.8)
            )

    def test_condition_d_closedness_only(self, inst47, inst611):
        assert not decomposition_condition_check(inst47, "d").holds
        check = decomposition_condition_check(inst611, "d")
        assert check.holds and check.conditions["class_closed_under_differences"]
        assert check.details["witness"] == "not-provided"

    def test_condition_d_with_witness(self, inst611):
        psi = GeneralizedQuadratic.affine([2.0], 1.0)
        check = decomposition_condition_check(inst611, "d", psi=psi, x=[0.5])
        assert check.holds
        assert check.conditions["phi_eps_in_class"]
        assert check.conditions["phi_eps_subgradient"]
        assert check.conditions["strict_gap"]
        assert check.details["lhs"] == pytest.approx(1.001, abs=1e-12)
        assert check.details["sup_gap"] == pytest.approx(1.0, abs=1e-12)
        # the witness is the tangent member, built as it was inline
        x, pb = np.array([0.5]), pullback(psi, inst611.L)
        phi_eps = oracles.tangent_inline(inst611.phi, pullback(inst611.g.quad, inst611.L), x)
        assert check.details["lhs"] == float(pb(x)) - float(phi_eps(x)) + 1e-3
        assert check.details["sup_gap"] == conjugate_closed_form(phi_eps, pb).value

    def test_condition_d_strict_gap_fails_for_mismatched_slope(self, inst611):
        psi = GeneralizedQuadratic.affine([1.0])
        check = decomposition_condition_check(inst611, "d", psi=psi, x=[0.5])
        assert not check.holds and not check.conditions["strict_gap"]

    def test_condition_d_witness_construction_can_fail(self):
        inst = build(
            quad_obj(1, 1.0), quad_obj(1, -2.0),
            phi_spec=CurvatureSpec.fixed(-1.0), psi_spec=CurvatureSpec.nonpos(),
        )
        check = decomposition_condition_check(
            inst, "d", psi=GeneralizedQuadratic.zero(1), x=[0.0]
        )
        assert not check.holds and not check.conditions["witness_constructed"]

    def test_unknown_condition(self, inst47):
        with pytest.raises(InvariantViolation):
            decomposition_condition_check(inst47, "e")

    @pytest.mark.parametrize("which, given, outside", [
        ("b", {"psi": "curved"}, "psi"),
        ("c", {"phi": "zero", "psi": "curved"}, "psi"),
        ("c", {"phi": "convex", "psi": "zero"}, "phi"),
        ("d", {"psi": "curved"}, "psi"),
        ("d", {"psi": "curved", "x": [-0.2]}, "psi"),
    ])
    def test_a_given_member_outside_its_class_raises(self, inst47, which, given, outside):
        """ex4.7 has a linear output class and a concave input class: psi =
        5y^2 lies outside the first and phi = 3x^2 outside the second."""
        members = {"zero": GeneralizedQuadratic.zero(1), "curved": GeneralizedQuadratic.iso(1, 5.0),
                   "convex": GeneralizedQuadratic.iso(1, 3.0)}
        given = {k: members[v] if isinstance(v, str) else v for k, v in given.items()}
        cls = {"psi": "output", "phi": "input"}[outside]
        with pytest.raises(InvariantViolation, match=f"{outside} is not a member of the {cls}"):
            decomposition_condition_check(inst47, which, **given)


def test_every_named_condition_check_is_one_verdict_type(inst47, inst48):
    """Certificate checks, decomposition conditions and the support-point
    check all return a ``ConditionCheck`` whose kind names the check."""
    psi42 = GeneralizedQuadratic.iso(1, -1.0, [2.0])
    checks = {
        "thm42": verify_gap_certificate(inst48, GapCertificate("thm42", 1e-3, [-2.0, 3.0], psi42)),
        "thm43": verify_gap_certificate(inst47, build_tangent_certificate(inst47, [-0.2], 1e-3)),
        "b": decomposition_condition_check(inst47, "b"),
        "support_point": support_point_zero_gap_check(
            LagrangianContext(inst47), GeneralizedQuadratic.affine([-1.6]), [-0.2], 0.0),
    }
    for kind, check in checks.items():
        assert type(check) is ConditionCheck and check.kind == kind
