"""Serialization, the bundled catalog, seeded generation, and reports."""

import ast
import copy
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import abconv.instances as instances
from abconv import (
    Box,
    ConjugateValue,
    CurvatureSpec,
    Family,
    FamilySearchGrid,
    GapCertificate,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    InstanceParseError,
    InvariantViolation,
    LagrangianContext,
    LinearMap,
    Objective,
    PrimalResult,
    ProblemInstance,
    RandomSpec,
    UnknownCatalogName,
    catalog_instance,
    catalog_names,
    certificate_from_dict,
    certificate_to_dict,
    conjugate_value,
    dumps,
    instance_from_dict,
    instance_to_dict,
    load_certificate_file,
    load_instance,
    lp_value,
    lsc_probe_at_zero,
    primal_value,
    random_instance,
    report_json,
    report_table,
    reproduce_checks,
    run_report,
    save_instance,
)

ALL_NAMES = ("ex4.7", "ex4.7-reversed", "ex4.8", "ex5.6", "ex6.10", "ex6.11")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GAP_REFERENCE = PERFBENCH / "reference" / "gap"
CATALOG_FACTS = GAP_REFERENCE.parent / "catalog_facts.json"


class TestDumps:
    def test_seventeen_digit_floats(self):
        assert dumps(0.1) == "0.10000000000000001"
        assert dumps(1.0) == "1"
        assert dumps(-9.25) == "-9.25"

    def test_infinities_are_strings(self):
        assert dumps(INF) == '"inf"'
        assert dumps(-INF) == '"-inf"'
        assert dumps({"v": INF}) == '{\n  "v": "inf"\n}'

    def test_nan_raises(self):
        with pytest.raises(InstanceParseError):
            dumps(float("nan"))

    def test_zero_dimensional_arrays_are_scalars(self):
        assert dumps(np.array(5.0)) == "5"
        assert dumps(np.array(-INF)) == '"-inf"'
        assert dumps(np.array(True)) == "true"
        assert dumps([np.array(1.5), 2.0]) == "[1.5, 2]"
        assert dumps({"v": np.array(3)}) == '{\n  "v": 3\n}'
        with pytest.raises(InstanceParseError):
            dumps(np.array(float("nan")))

    def test_mixed_and_non_finite_lists(self):
        assert dumps([1, 2.5, -0.0, 10**20]) == "[1, 2.5, -0, 100000000000000000000]"
        assert dumps([1.0, INF, -INF]) == '[1, "inf", "-inf"]'
        assert dumps((0.25, np.float64(1e300), True)) == "[0.25, 1.0000000000000001e+300, true]"
        assert dumps(np.array([[1.0, 2.0]])) == "[\n  [1, 2]\n]"
        with pytest.raises(InstanceParseError):
            dumps([1.0, float("nan")])

    def test_scalars_lists_and_none(self):
        assert dumps(True) == "true"
        assert dumps(None) == "null"
        assert dumps(3) == "3"
        assert dumps([1.0, 2.5]) == "[1, 2.5]"
        assert dumps([]) == "[]"
        assert dumps({}) == "{}"

    def test_key_order_is_preserved(self):
        assert dumps({"b": 1, "a": 2}).index('"b"') < dumps({"b": 1, "a": 2}).index('"a"')

    def test_unserializable_raises(self):
        with pytest.raises(InstanceParseError):
            dumps({1, 2})


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_catalog_files_round_trip_byte_exactly(self, name, tmp_path):
        inst = catalog_instance(name)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        first = path.read_text()
        loaded = load_instance(path)
        assert dumps(instance_to_dict(loaded)) + "\n" == first
        save_instance(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == first
        assert loaded.name == inst.name
        assert primal_value(loaded).value == primal_value(inst).value

    def test_negative_zero_entries_round_trip_byte_exactly(self):
        # -I has -0.0 off the diagonal; a hand-written file may say -0.0
        inst = ProblemInstance.build(
            f=Objective.quadratic(GeneralizedQuadratic.iso(2, 1.0)),
            g=Objective.quadratic(GeneralizedQuadratic.iso(2, 1.0)),
            L=LinearMap(-np.eye(2)),
            phi=Family(2, CurvatureSpec.nonpos()),
            psi=Family(2, CurvatureSpec.zero()),
        )
        text = dumps(instance_to_dict(inst))
        assert dumps(instance_to_dict(instance_from_dict(json.loads(text)))) == text
        data = dict(json.loads(text), f=dict(json.loads(text)["f"], c=-0.0))
        first = dumps(instance_to_dict(instance_from_dict(data)))
        assert dumps(instance_to_dict(instance_from_dict(json.loads(first)))) == first

    def test_loaded_instance_matches_source_numerically(self, inst47, tmp_path):
        path = tmp_path / "i.json"
        save_instance(inst47, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.f.quad.A, inst47.f.quad.A)
        np.testing.assert_array_equal(loaded.L.matrix, inst47.L.matrix)
        assert loaded.phi.curvature.kind == "nonpos"
        assert not loaded.phi.includes_constants
        assert loaded.psi_search.slopes().shape == (201, 1)

    def test_domain_box_survives(self, tmp_path):
        inst = ProblemInstance.build(
            f=Objective.quadratic(
                GeneralizedQuadratic.iso(1, 1.0), domain_box=Box([-2.0], [2.0])
            ),
            g=Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0)),
            L=LinearMap.identity(1),
            phi=Family(1, CurvatureSpec.nonpos()),
            psi=Family(1, CurvatureSpec.zero()),
        )
        path = tmp_path / "boxed.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.f.domain_box is not None
        assert loaded.f.value([3.0]) == INF
        assert loaded.f.value([1.0]) == pytest.approx(1.0)

    def test_blackbox_poly_payload(self, inst47, tmp_path):
        data = instance_to_dict(inst47)
        data["f"] = dict(data["f"], kind="blackbox-poly")
        inst = instance_from_dict(data)
        assert inst.f.quad is None
        assert inst.f.value([2.0]) == pytest.approx(9.0)  # (x+1)^2 behind a callable
        res = primal_value(inst)
        assert res.engine == "grid"
        assert res.value == pytest.approx(0.8, abs=1e-9)
        # and it serializes back to its own descriptor
        path = tmp_path / "bb.json"
        save_instance(inst, path)
        assert json.loads(path.read_text())["f"]["kind"] == "blackbox-poly"


def _boxed_1x1(x_points: int, y_points: int, y_rounds: int) -> ProblemInstance:
    return ProblemInstance.build(
        f=Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0, [1.0]), domain_box=Box([-2.0], [3.0])),
        g=Objective.quadratic(GeneralizedQuadratic.iso(1, -0.5, [0.3]), domain_box=Box([-4.0], [1.5])),
        L=LinearMap([[0.8]]),
        phi=Family(1, CurvatureSpec.nonpos()),
        psi=Family(1, CurvatureSpec.nonpos()),
        psi_search=FamilySearchGrid.default(
            Family(1, CurvatureSpec.nonpos()), slope_points=31, curvature_points=11),
        x_search=GridSpec(Box.cube(1), x_points, 2),
        y_search=GridSpec(Box.cube(1), y_points, y_rounds),
    )


def _grid_fields(grid: GridSpec) -> tuple:
    return grid.box.lower.tobytes(), grid.box.upper.tobytes(), grid.points_per_axis, grid.refine_rounds


class TestSearchGridFields:
    """The y mesh and the psi grid as an instance file writes and reads them."""

    @pytest.mark.parametrize("y_points,y_rounds", [(41, 2), (51, 1), (41, 0)])
    def test_a_y_mesh_off_the_defaults_round_trips(self, y_points, y_rounds):
        inst = _boxed_1x1(51, y_points, y_rounds)
        search = instance_to_dict(inst)["search"]
        assert ("y_points_per_axis" in search) == (y_points != 51)
        assert ("y_refine_rounds" in search) == (y_rounds != 2)
        loaded = instance_from_dict(json.loads(dumps(instance_to_dict(inst))))
        assert _grid_fields(loaded.y_search) == _grid_fields(inst.y_search)
        assert report_json(run_report(loaded)) == report_json(run_report(inst))

    def test_a_file_without_the_y_fields_loads_as_before(self):
        # y takes x's density when m == n and the default one otherwise,
        # and x's refine rounds
        data = instance_to_dict(_boxed_1x1(51, 51, 2))
        assert "y_points_per_axis" not in data["search"]
        data["search"]["refine_rounds"] = 1
        assert _grid_fields(instance_from_dict(data).y_search)[2:] == (51, 1)
        raw = random_instance(RandomSpec(n=2, m=1), 0)
        data = instance_to_dict(raw)
        assert "y_points_per_axis" not in data["search"]
        assert instance_from_dict(data).y_search.points_per_axis == 201
        del data["search"]["points_per_axis"]
        assert instance_from_dict(data).x_search.points_per_axis == 61

    def test_bad_y_fields_are_parse_errors(self):
        data = instance_to_dict(_boxed_1x1(51, 41, 1))
        for key, bad in (("y_points_per_axis", BAD_LEAVES + (2, 10**7)),
                         ("y_refine_rounds", (None, "x", True, [1], -1, 0.5, float("nan")))):
            for value in bad:
                mutant = copy.deepcopy(data)
                mutant["search"][key] = value
                with pytest.raises(InstanceParseError):
                    instance_from_dict(mutant)

    def test_a_curvature_count_and_a_missing_psi_grid(self):
        data = instance_to_dict(random_instance(RandomSpec(n=1, m=2), 3))
        psi = Family(2, CurvatureSpec.nonpos())
        data["search"]["psi_curv_grid"] = 5
        loaded = instance_from_dict(data).psi_search
        assert loaded.curvatures == tuple(float(a) for a in psi.curvature.grid(points=5))
        assert loaded.curvatures == (-10.0, -7.5, -5.0, -2.5, 0.0)
        for key in ("psi_curv_grid", "psi_slope_points_per_axis", "psi_slope_box"):
            del data["search"][key]
        loaded, default = instance_from_dict(data).psi_search, FamilySearchGrid.default(psi)
        assert loaded.curvatures == default.curvatures
        assert loaded.slope_points_per_axis == default.slope_points_per_axis == 41
        assert loaded.slopes().tobytes() == default.slopes().tobytes()


class TestWriterFromModel:
    """Files are written from the model alone: what the reader built is what
    the round trip checks."""

    def test_a_loaded_instance_does_not_alias_its_dict(self, inst47):
        data = instance_to_dict(inst47)
        loaded = instance_from_dict(data)
        before = dumps(instance_to_dict(loaded))
        data["f"]["c"] = 123.5
        assert dumps(instance_to_dict(loaded)) == before

    def test_equal_instances_write_equal_bytes(self):
        # a hand-written file that leaves name and refine_rounds to the reader
        data = instance_to_dict(catalog_instance("ex4.7"))
        del data["name"], data["search"]["refine_rounds"]
        loaded = instance_from_dict(data)
        copied = dataclasses.replace(loaded)
        assert copied == loaded
        assert dumps(instance_to_dict(copied)) == dumps(instance_to_dict(loaded))
        written = instance_to_dict(loaded)
        assert written["name"] == "" and written["search"]["refine_rounds"] == 2
        assert instance_from_dict(json.loads(dumps(written))) == loaded

    def test_blackbox_files(self, inst47):
        data = instance_to_dict(inst47)
        data["g"] = dict(data["g"], kind="blackbox-poly")
        text = dumps(data)
        a, b = (instance_from_dict(json.loads(text)) for _ in range(2))
        assert a.g.quad is None
        assert a == b and hash(a) == hash(b)
        assert dumps(instance_to_dict(a)) == text
        renamed = dataclasses.replace(a, name="renamed")
        assert dumps(instance_to_dict(renamed)) == dumps(dict(json.loads(text), name="renamed"))
        opaque = dataclasses.replace(a, g=Objective.from_callable(a.g.dim, lambda y: 0.0))
        with pytest.raises(InstanceParseError, match="only quadratic-backed"):
            instance_to_dict(opaque)

    def test_the_text_round_trip_catches_a_reader_fault(self, monkeypatch):
        text = dumps(instance_to_dict(_boxed_1x1(51, 51, 1)))
        assert dumps(instance_to_dict(instance_from_dict(json.loads(text)))) == text
        rounds_seen = []

        def grid_ignoring_y_rounds(box, points, rounds):
            rounds_seen.append(rounds)  # the x mesh is built first
            return GridSpec(box, points, rounds_seen[0])

        monkeypatch.setattr(instances, "GridSpec", grid_ignoring_y_rounds)
        assert dumps(instance_to_dict(instance_from_dict(json.loads(text)))) != text


MODEL_CLASSES = ("GeneralizedQuadratic", "Box", "LinearMap", "GridSpec",
                 "FamilySearchGrid", "Objective", "ProblemInstance")
# The leaf array each model is built on; moving one of its entries by one
# ulp must make the model unequal.
MODEL_LEAF = {"GeneralizedQuadratic": "quad", "Box": "box", "LinearMap": "L",
              "GridSpec": "box", "FamilySearchGrid": "box", "Objective": "quad",
              "ProblemInstance": "L"}


def _model(name: str, dim: int, bump: str = "") -> object:
    """A fresh model of class ``name`` in dimension dim; the leaf named by
    ``bump`` has its last entry one ulp higher."""
    def leaf(key, values):
        values = np.array(values, dtype=float)
        if key == bump:
            values.flat[-1] = np.nextafter(values.flat[-1], INF)
        return values

    quad = GeneralizedQuadratic(dim, np.eye(dim), leaf("quad", np.arange(1.0, dim + 1)), 0.5)
    box = Box(-np.ones(dim), leaf("box", np.arange(1.0, dim + 1)))
    L = LinearMap(leaf("L", np.arange(1.0, dim * dim + 1).reshape(dim, dim)))
    grid = GridSpec(box, 5, 1)
    family = Family(dim, CurvatureSpec.nonneg())
    search = FamilySearchGrid(family, box, 3, (0.0, 1.0))
    f = Objective.quadratic(quad, domain_box=box)
    g = Objective.quadratic(GeneralizedQuadratic.iso(dim, 1.0))
    inst = ProblemInstance(f, g, L, family, search, grid, grid, "eq")
    return {"GeneralizedQuadratic": quad, "Box": box, "LinearMap": L, "GridSpec": grid,
            "FamilySearchGrid": search, "Objective": f, "ProblemInstance": inst}[name]


class TestModelEquality:
    """Models compare and hash by value: array leaves by shape and bytes
    (so -0.0 and 0.0 differ, as in the report bytes), composites through
    their fields."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", MODEL_CLASSES)
    def test_equal_copies_compare_and_hash_alike(self, name, dim):
        a, b = _model(name, dim), _model(name, dim)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", MODEL_CLASSES)
    def test_one_ulp_makes_them_unequal(self, name, dim):
        a, b = _model(name, dim), _model(name, dim, bump=MODEL_LEAF[name])
        assert a != b and not a == b

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cached_meshes_are_not_compared(self, dim):
        a, b = _model("ProblemInstance", dim), _model("ProblemInstance", dim)
        a.f_on_mesh, a.g_on_mesh
        assert a == b and b == a
        assert hash(a) == hash(b)

    def test_signed_zeros_and_shapes_differ(self):
        assert GeneralizedQuadratic.zero(2) != GeneralizedQuadratic.iso(2, -0.0)
        assert Box(np.zeros(1), np.ones(1)) != Box(-np.zeros(1), np.ones(1))
        assert LinearMap(np.ones((2, 3))) != LinearMap(np.ones((3, 2)))

    def test_a_callable_compares_by_identity(self):
        fn = np.sum
        assert Objective.from_callable(2, fn) == Objective.from_callable(2, fn)
        assert Objective.from_callable(2, fn) != Objective.from_callable(2, lambda x: fn(x))
        assert len({catalog_instance("ex4.8"), catalog_instance("ex4.8")}) == 1


RESULT_CLASSES = ("PrimalResult", "ConjugateValue", "GapCertificate")


def _result(name: str, dim: int, bump: str = "") -> object:
    """A fresh result of class ``name`` holding a point of ``dim`` entries;
    ``bump`` moves the last entry of the "point" or the "value" one ulp up."""
    x = np.linspace(-1.0, 2.5, dim)
    value = {"PrimalResult": -2.5, "ConjugateValue": 0.75, "GapCertificate": 1e-3}[name]
    if bump == "point":
        x[-1] = np.nextafter(x[-1], INF)
    if bump == "value":
        value = float(np.nextafter(value, INF))
    if name == "PrimalResult":
        return PrimalResult(value, x, "grid", ("infeasible_window",))
    if name == "ConjugateValue":
        return ConjugateValue(value, x, "closed", "note")
    return GapCertificate("thm43", value, x, GeneralizedQuadratic.iso(1, -1.0, [2.0]),
                          GeneralizedQuadratic.iso(dim, 0.5, x))


class TestResultEquality:
    """Results that hold arrays compare and hash like the models: ndarray
    and float fields by shape and bytes, the other fields by their own ==."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", RESULT_CLASSES)
    def test_equal_copies_compare_and_hash_alike(self, name, dim):
        a, b = _result(name, dim), _result(name, dim)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("bump", ["point", "value"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", RESULT_CLASSES)
    def test_one_ulp_makes_them_unequal(self, name, dim, bump):
        a, b = _result(name, dim), _result(name, dim, bump=bump)
        assert a != b and not a == b

    def test_copies_of_the_ex48_results(self, inst48):
        primal = primal_value(inst48)
        results = (
            primal,
            lp_value(LagrangianContext(inst48)),
            conjugate_value(inst48.f, GeneralizedQuadratic.iso(2, -1.0)),
            GapCertificate("thm42", 1e-3, primal.minimizer, GeneralizedQuadratic.iso(1, -1.0)),
        )
        for result in results:
            copied = copy.deepcopy(result)
            assert copied == result and hash(copied) == hash(result)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _resolve(module: str, attribute: str):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part, None)
    return obj


class TestBenchmarkTargets:
    def test_every_traced_function_exists(self):
        """The benchmark's tracer finds each target by module and attribute
        name, and reports a missing one only as a zero count."""
        for _, module, attribute in _load_spans().TARGETS:
            assert callable(_resolve(module, attribute)), f"{module}.{attribute} is not in the tree"

    def test_every_counted_argument_keeps_its_position_and_name(self):
        """The tracer's counters read a target's arguments by position or by
        keyword (``_arg(args, kwargs, index, name)``); a moved or renamed
        parameter would be counted as 0 without an error."""
        spans = _load_spans()
        found = set()
        for layer, counter in spans._COUNTERS.items():
            for node in ast.walk(ast.parse(inspect.getsource(counter))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_arg"):
                    found.add((layer, node.args[2].value, node.args[3].value))
        assert found >= {
            ("conjugates.biconjugate_many", 1, "X"),
            ("conjugates.biconjugate_many", 2, "search"),
            ("conjugates.biconjugate_many", 3, "table"),
            ("conjugates.family_conjugate_table", 1, "search"),
            ("objectives.values", 1, "X"),
            ("duality.dcp_value", 1, "inf_table"),
            ("duality.dcp_value", 2, "gstar_table"),
        }
        targets = {name: (module, attribute) for name, module, attribute in spans.TARGETS}
        for layer, index, name in sorted(found):
            params = list(inspect.signature(_resolve(*targets[layer])).parameters)
            assert params[index:index + 1] == [name], (layer, index, name, params)


def _sha256(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


class TestWriterBytes:
    """The writer's bytes, pinned as sha256 digests of what it wrote before
    it became one pass."""

    def test_catalog_and_seeded_instances(self):
        texts = [dumps(instance_to_dict(catalog_instance(n))) for n in ALL_NAMES]
        texts += [dumps(instance_to_dict(random_instance(RandomSpec(n=n, m=m), seed)))
                  for n in (1, 2, 3) for m in (1, 2, 3) for seed in (0, 1, 2)]
        assert _sha256(texts) == (
            "a98c922c930776c98bb57b95eed48b0455842db2a5807dcda529a223984d480b")

    def test_catalog_reports(self):
        texts = [report_json(run_report(catalog_instance(n))) for n in ALL_NAMES]
        assert _sha256(texts) == (
            "2cc50b692270f897b99b888bb7d53accc13ce32229e730b48b73ba898b167ae8")

    def test_a_loaded_file_with_negative_zeros(self):
        inst = ProblemInstance.build(
            f=Objective.quadratic(GeneralizedQuadratic.iso(2, 1.0)),
            g=Objective.quadratic(GeneralizedQuadratic.iso(2, 1.0)),
            L=LinearMap(-np.eye(2)),
            phi=Family(2, CurvatureSpec.nonpos()),
            psi=Family(2, CurvatureSpec.zero()),
        )
        data = json.loads(dumps(instance_to_dict(inst)))
        data["f"]["c"] = -0.0
        data["L"][0][1] = -0.0
        data["search"]["x_box"]["lower"][0] = -0.0
        assert _sha256([dumps(instance_to_dict(instance_from_dict(data)))]) == (
            "64b31073320f6910a67288db488b05a80e60351e1b39b27344a5ab2334a77109")


class TestInstanceParseErrors:
    def base(self):
        return instance_to_dict(catalog_instance("ex4.7"))

    def test_not_a_dict(self):
        with pytest.raises(InstanceParseError):
            instance_from_dict([])

    def test_schema_version(self):
        data = dict(self.base(), schema_version="2")
        with pytest.raises(InstanceParseError, match="schema_version"):
            instance_from_dict(data)

    def test_missing_field(self):
        data = self.base()
        del data["g"]
        with pytest.raises(InstanceParseError, match="missing field 'g'"):
            instance_from_dict(data)

    def test_bad_dimensions(self):
        with pytest.raises(InstanceParseError, match="positive integers"):
            instance_from_dict(dict(self.base(), n=0))
        with pytest.raises(InstanceParseError, match="positive integers"):
            instance_from_dict(dict(self.base(), n=1.0))

    def test_l_shape_mismatch(self):
        data = dict(self.base(), L=[[1.0, 2.0]])
        with pytest.raises(InstanceParseError, match="L: shape"):
            instance_from_dict(data)

    def test_objective_field_paths(self):
        data = self.base()
        data["f"] = dict(data["f"])
        del data["f"]["u"]
        with pytest.raises(InstanceParseError, match="f.u"):
            instance_from_dict(data)
        data = self.base()
        data["g"] = dict(data["g"], A=[[1.0, 0.0]])
        with pytest.raises(InstanceParseError, match="g.A"):
            instance_from_dict(data)
        data = self.base()
        data["f"] = dict(data["f"], kind="mystery")
        with pytest.raises(InstanceParseError, match="f.kind"):
            instance_from_dict(data)

    def test_bad_curvature_label(self):
        data = self.base()
        data["phi"] = {"curvature": "sideways"}
        with pytest.raises(InstanceParseError, match="phi.curvature"):
            instance_from_dict(data)

    def test_bad_number_and_ragged_matrix(self):
        data = self.base()
        data["f"] = dict(data["f"], c="huge")
        with pytest.raises(InstanceParseError, match="bad number"):
            instance_from_dict(data)
        data = self.base()
        data["L"] = [[1.0], [1.0, 2.0]]
        with pytest.raises(InstanceParseError, match="ragged"):
            instance_from_dict(data)

    def test_search_block_types(self):
        data = self.base()
        data["search"] = dict(data["search"], points_per_axis="many")
        with pytest.raises(InstanceParseError, match="points_per_axis"):
            instance_from_dict(data)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(InstanceParseError, match="no such file"):
            load_instance(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json\n")
        with pytest.raises(InstanceParseError, match="line 1"):
            load_instance(bad)


class TestCertificateFiles:
    def test_round_trip_both_kinds(self):
        thm42 = certificate_from_dict(
            {"kind": "thm42", "eps": 1e-3, "x": [-2.0, 3.0],
             "psi": {"a": -1.0, "u": [2.0], "c": 0.0}},
            n=2, m=1,
        )
        assert thm42.kind == "thm42" and thm42.phi is None
        back = certificate_to_dict(thm42)
        assert back["psi"] == {"a": -1.0, "u": [2.0], "c": 0.0}
        assert "phi" not in back

        thm43 = certificate_from_dict(
            {"kind": "thm43", "eps": 0.0, "x": [-0.2],
             "psi": {"u": [-1.6]}, "phi": {"u": [1.6]}},
            n=1, m=1,
        )
        assert thm43.psi.A[0, 0] == 0.0  # defaults: a = 0, c = 0
        assert thm43.psi.c == 0.0
        assert certificate_to_dict(thm43)["phi"]["u"] == [1.6]

    def test_negative_zero_entries_round_trip_byte_exactly(self):
        cert = GapCertificate(
            "thm42", 1e-3, [-0.0], GeneralizedQuadratic.iso(1, -0.0, [2.0], -0.0)
        )
        text = dumps(certificate_to_dict(cert))
        back = certificate_from_dict(json.loads(text), n=1, m=1)
        assert dumps(certificate_to_dict(back)) == text

    def test_validation(self):
        with pytest.raises(InstanceParseError, match="thm42|thm43"):
            certificate_from_dict({"kind": "thm99", "eps": 0, "x": [0], "psi": {}}, 1, 1)
        with pytest.raises(InstanceParseError, match="missing field"):
            certificate_from_dict({"kind": "thm42", "x": [0], "psi": {}}, 1, 1)
        with pytest.raises(InstanceParseError, match="length"):
            certificate_from_dict(
                {"kind": "thm42", "eps": 0, "x": [0, 0], "psi": {"u": [0]}}, 1, 1
            )
        with pytest.raises(InstanceParseError, match="thm43 needs phi"):
            certificate_from_dict(
                {"kind": "thm43", "eps": 0, "x": [0], "psi": {"u": [0]}}, 1, 1
            )
        with pytest.raises(InstanceParseError, match="thm42 takes no phi"):
            certificate_from_dict(
                {"kind": "thm42", "eps": 0, "x": [0], "psi": {"u": [0]}, "phi": {"u": [1]}}, 1, 1
            )

    def test_single_certificate_file(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(
            {"kind": "thm42", "eps": 1e-3, "x": [-2.0, 3.0],
             "psi": {"a": -1.0, "u": [2.0], "c": 0.0}}
        ))
        out = load_certificate_file(path, n=2, m=1)
        assert out["kind"] == "thm42"
        assert len(out["certs"]) == 1
        assert out["certs"][0].eps == 1e-3

    def test_ladder_file_with_default_ladder(self, tmp_path):
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps({
            "kind": "thm44",
            "x": [-0.2],
            "certs": [
                {"kind": "thm43", "eps": 1e-2, "x": [-0.2],
                 "psi": {"u": [-1.6]}, "phi": {"u": [1.6]}},
            ],
        }))
        out = load_certificate_file(path, n=1, m=1)
        assert out["kind"] == "thm44"
        assert out["ladder"] == (1.0, 1e-2, 1e-4, 1e-6)
        assert len(out["certs"]) == 1
        np.testing.assert_allclose(out["x"], [-0.2])

    def test_ladder_file_validation(self, tmp_path):
        path = tmp_path / "noX.json"
        path.write_text(json.dumps({"kind": "thm44", "certs": []}))
        with pytest.raises(InstanceParseError, match="needs x"):
            load_certificate_file(path, 1, 1)
        path2 = tmp_path / "odd.json"
        path2.write_text(json.dumps({"kind": "thm45"}))
        with pytest.raises(InstanceParseError, match="kind"):
            load_certificate_file(path2, 1, 1)


class TestCatalog:
    def test_names(self):
        assert catalog_names() == ALL_NAMES

    def test_unknown_name(self):
        with pytest.raises(UnknownCatalogName, match="ex9.9"):
            catalog_instance("ex9.9")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reproduce_checks_all_pass(self, name):
        rows = reproduce_checks(name)
        assert rows, "every entry carries at least one check"
        failed = [r for r in rows if not r.passed]
        assert not failed, f"failing rows: {[(r.label, r.detail) for r in failed]}"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_the_benchmark_catalog_facts_hold(self, name):
        facts = json.loads(CATALOG_FACTS.read_text())[name]
        rows = reproduce_checks(name)
        assert len(rows) == facts["checks"]
        assert all(row.passed for row in rows), [(r.label, r.detail) for r in rows]
        ctx = LagrangianContext(catalog_instance(name))
        assert lsc_probe_at_zero(ctx) == facts["lsc"]

    def test_reproduce_check_counts(self):
        counts = {name: len(reproduce_checks(name)) for name in ALL_NAMES}
        assert counts == {
            "ex4.7": 5,
            "ex4.7-reversed": 3,
            "ex4.8": 6,
            "ex5.6": 7,
            "ex6.10": 5,
            "ex6.11": 5,
        }
        assert sum(counts.values()) == 31


class TestRandomGen:
    def test_same_seed_same_instance(self):
        spec = RandomSpec(n=2, m=1)
        a = random_instance(spec, 7)
        b = random_instance(spec, 7)
        np.testing.assert_array_equal(a.f.quad.A, b.f.quad.A)
        np.testing.assert_array_equal(a.g.quad.u, b.g.quad.u)
        np.testing.assert_array_equal(a.L.matrix, b.L.matrix)
        assert a.name == "random-7"

    def test_different_seeds_differ(self):
        spec = RandomSpec()
        a = random_instance(spec, 7)
        b = random_instance(spec, 8)
        assert not np.array_equal(a.f.quad.u, b.f.quad.u)

    def test_weak_convexity_modulus_is_bounded(self):
        spec = RandomSpec(n=2, m=2, f_modulus=(0.0, 2.0), g_modulus=(0.5, 1.0))
        for seed in range(5):
            inst = random_instance(spec, seed)
            f_min = float(np.linalg.eigvalsh(inst.f.quad.A).min())
            g_min = float(np.linalg.eigvalsh(inst.g.quad.A).min())
            assert -2.0 - 1e-12 <= f_min <= 1e-12
            assert -1.0 - 1e-12 <= g_min <= -0.5 + 1e-12

    def test_classes_are_weakly_concave_with_constants(self):
        inst = random_instance(RandomSpec(), 3)
        assert inst.phi.curvature.kind == "nonpos"
        assert inst.psi.curvature.kind == "nonpos"
        assert inst.phi.includes_constants and inst.psi.includes_constants

    def test_spec_validation(self):
        with pytest.raises(InstanceParseError):
            RandomSpec(n=0)
        with pytest.raises(InstanceParseError):
            RandomSpec(f_modulus=(-1.0, 2.0))
        with pytest.raises(InstanceParseError):
            RandomSpec(g_modulus=(2.0, 1.0))
        with pytest.raises(InstanceParseError):
            RandomSpec(l_scale=0.0)
        # default grids of 9 points per axis: 9**6 points fit under the
        # mesh cap, 9**7 do not, and n = 10**6 is rejected without meshing
        assert RandomSpec(n=6, m=6).n == 6
        for kw in ({"n": 7}, {"m": 7}, {"n": 10**6}):
            with pytest.raises(InstanceParseError, match="exceeds"):
                RandomSpec(**kw)

    def test_spec_from_dict(self):
        spec = RandomSpec.from_dict({"n": 2, "f_modulus": [0.0, 1.0]})
        assert spec.n == 2 and spec.f_modulus == (0.0, 1.0)
        with pytest.raises(InstanceParseError, match="integer"):
            RandomSpec.from_dict({"n": 2.0})
        with pytest.raises(InstanceParseError, match="lo, hi"):
            RandomSpec.from_dict({"g_modulus": [1.0]})
        with pytest.raises(InstanceParseError):
            RandomSpec.from_dict("n=2")


# The values every node of a file is set to, one at a time.
BAD_LEAVES = (None, "x", True, [1], -1, 0, 0.5, float("nan"))
SEEDED_SPEC = {"n": 2, "m": 1, "f_modulus": [0.0, 2.0], "g_modulus": [0.5, 1.0],
               "l_scale": 1.0, "slope_scale": 2.0}


def _node_paths(node, path=()):
    """Key/index paths of every value below the root of a JSON tree: the
    scalars and the objects and lists that hold them."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _mutants(data):
    for path in _node_paths(data):
        for value in BAD_LEAVES:
            mutant = copy.deepcopy(data)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield path, value, mutant


class TestMalformedLeaves:
    """Every value in a seeded file, leaf or container, set to each bad
    value either loads or raises a typed error, never anything else."""

    def test_instance_file(self):
        data = instance_to_dict(random_instance(RandomSpec(), 4))
        loaded = rejected = 0
        for path, value, mutant in _mutants(data):
            try:
                instance_from_dict(mutant)
                loaded += 1
            except (InstanceParseError, InvariantViolation):
                rejected += 1
            except Exception as exc:
                pytest.fail(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
        assert loaded > 20 and rejected > 200

    def test_random_spec(self):
        for path, value, mutant in _mutants(SEEDED_SPEC):
            try:
                random_instance(RandomSpec.from_dict(mutant), 1)
            except (InstanceParseError, InvariantViolation):
                pass
            except Exception as exc:
                pytest.fail(f"{path} = {value!r}: {type(exc).__name__}: {exc}")

    def test_certificate_objects(self):
        thm42 = certificate_to_dict(GapCertificate(
            "thm42", 1e-3, [-2.0, 3.0], GeneralizedQuadratic.iso(1, -1.0, [2.0], 0.5)))
        thm43 = certificate_to_dict(GapCertificate(
            "thm43", 0.0, [-0.2, 1.0], GeneralizedQuadratic.affine([-1.6]),
            GeneralizedQuadratic.iso(2, 0.0, [1.6, 0.3], 0.0)))
        loaded = rejected = 0
        for data in (thm42, thm43):
            for path, value, mutant in _mutants(data):
                try:
                    certificate_from_dict(mutant, n=2, m=1)
                    loaded += 1
                except (InstanceParseError, InvariantViolation):
                    rejected += 1
                except Exception as exc:
                    pytest.fail(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
        assert loaded > 30 and rejected > 100

    def test_certificate_ladder_file(self, tmp_path):
        member = {"a": -1.0, "u": [2.0], "c": 0.0}
        with_certs = {"kind": "thm44", "x": [-2.0, 3.0],
                      "certs": [{"kind": "thm42", "eps": 1.0, "x": [-2.0, 3.0], "psi": member},
                                {"kind": "thm43", "eps": 1e-3, "x": [-2.0, 3.0], "psi": member,
                                 "phi": {"a": 0.0, "u": [1.0, -1.0], "c": 0.0}}]}
        with_ladder = {"kind": "thm44", "x": [-2.0, 3.0], "ladder": [1.0, 1e-3]}
        path = tmp_path / "ladder.json"
        loaded = rejected = 0
        for data in (with_certs, with_ladder):
            for where, value, mutant in _mutants(data):
                path.write_text(json.dumps(mutant))
                try:
                    load_certificate_file(path, n=2, m=1)
                    loaded += 1
                except (InstanceParseError, InvariantViolation):
                    rejected += 1
                except Exception as exc:
                    pytest.fail(f"{where} = {value!r}: {type(exc).__name__}: {exc}")
        assert loaded > 40 and rejected > 150

    def test_nan_is_rejected_wherever_a_number_goes(self, tmp_path):
        """Python's json reads the NaN literal; only the free-text name may
        hold it."""
        def loads(load, data):
            found = []
            for where, value, mutant in _mutants(data):
                if value == value:  # not NaN
                    continue
                try:
                    load(mutant)
                    found.append(where)
                except (InstanceParseError, InvariantViolation):
                    pass
            return found

        assert loads(instance_from_dict,
                     instance_to_dict(random_instance(RandomSpec(), 4))) == [("name",)]
        assert loads(lambda d: random_instance(RandomSpec.from_dict(d), 1), SEEDED_SPEC) == []
        cert = certificate_to_dict(GapCertificate(
            "thm43", 0.0, [-0.2, 1.0], GeneralizedQuadratic.affine([-1.6]),
            GeneralizedQuadratic.iso(2, 0.0, [1.6, 0.3], 0.0)))
        assert loads(lambda d: certificate_from_dict(d, n=2, m=1), cert) == []
        path = tmp_path / "ladder.json"

        def load_ladder(d):
            path.write_text(json.dumps(d))
            load_certificate_file(path, n=2, m=1)

        assert loads(load_ladder, {"kind": "thm44", "x": [-2.0, 3.0],
                                   "certs": [cert | {"x": [-2.0, 3.0]}]}) == []
        assert loads(load_ladder, {"kind": "thm44", "x": [-2.0, 3.0], "ladder": [1.0, 1e-3]}) == []


class TestReports:
    def test_key_order_and_values(self, inst47):
        rep = run_report(inst47)
        assert list(rep) == [
            "name", "primal", "dcp", "ld", "lp", "gap", "flags",
            "attaining_psi", "certificates", "weak_duality_ok",
        ]
        assert rep["name"] == "ex4.7"
        assert rep["primal"] == pytest.approx(0.8, abs=1e-9)
        assert rep["dcp"] == rep["ld"]
        assert rep["gap"] == pytest.approx(0.0, abs=1e-9)
        assert rep["flags"] == ["grid_truncated"]
        assert rep["attaining_psi"]["u"][0] == pytest.approx(-1.6)
        assert rep["weak_duality_ok"]

    def test_certificate_entries(self, inst47):
        rep = run_report(inst47)
        assert [e["eps"] for e in rep["certificates"]] == [1.0, 1e-3, 1e-6]
        for entry in rep["certificates"]:
            assert entry["kind"] == "thm43"
            assert entry["holds"]
            assert "phi" in entry and "conditions" in entry
        quiet = run_report(inst47, certificates=False)
        assert quiet["certificates"] == []

    def test_json_is_deterministic(self, inst47):
        a = report_json(run_report(inst47))
        b = report_json(run_report(catalog_instance("ex4.7")))
        assert a == b
        assert a.startswith('{\n  "name": "ex4.7"')
        assert a.endswith("}\n")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_json_matches_the_recorded_reference_bytes(self, name):
        text = report_json(run_report(catalog_instance(name)))
        assert text == (GAP_REFERENCE / f"{name}.json").read_text()

    def test_table_rendering(self, inst47):
        text = report_table(run_report(inst47))
        lines = text.splitlines()
        assert lines[0].startswith("instance")
        assert "ex4.7" in lines[0]
        assert any(line.startswith("primal") and "0.8" in line for line in lines)
        assert any("a=0 u=(-1.6) c=0" in line for line in lines)
        assert lines[-1].startswith("weak duality") and lines[-1].endswith("ok")
        assert any("certificate eps=1 " in line or "certificate eps=1" in line
                   for line in lines)

    def test_degenerate_instance_report(self):
        inst = ProblemInstance.build(
            f=Objective.quadratic(GeneralizedQuadratic.iso(1, 1.0)),
            g=Objective.quadratic(GeneralizedQuadratic.iso(1, -1.0)),
            L=LinearMap.identity(1),
            phi=Family(1, CurvatureSpec.nonpos()),
            psi=Family(1, CurvatureSpec.zero()),
        )
        rep = run_report(inst)
        assert rep["dcp"] == -INF and rep["gap"] == INF
        assert rep["weak_duality_ok"]  # an infinite gap is not a violation
        assert "all_members_excluded" in rep["flags"]
        assert "biconjugate_minus_infinity" in rep["flags"]
        assert rep["attaining_psi"] is None
        for entry in rep["certificates"]:
            assert entry["kind"] is None and not entry["holds"]
            assert "note" in entry
        # both renderers must handle the infinite entries
        assert '"gap": "inf"' in report_json(rep)
        table = report_table(rep)
        assert "unavailable" in table and "-inf" in table
