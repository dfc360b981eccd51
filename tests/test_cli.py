"""End-to-end CLI behaviour: exit codes, stdout rows, files written."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from abconv import catalog_instance, report_json, run_report
from abconv.cli import main, parse_epi_point, parse_member

from conftest import infeasible_part_dict


def rows(out: str) -> dict:
    """Parse fixed-width key/value rows back into a dict."""
    parsed = {}
    for line in out.splitlines():
        parts = re.split(r"  +", line.rstrip(), maxsplit=1)
        if len(parts) == 2:
            parsed[parts[0]] = parts[1]
    return parsed


class TestMemberParsing:
    def test_full_member(self):
        q = parse_member("a=-1,u=2,3,c=0.5", 2)
        assert q.A[0, 0] == -1.0 and list(q.u) == [2.0, 3.0] and q.c == 0.5

    def test_defaults(self):
        q = parse_member("u=1", 1)
        assert q.A[0, 0] == 0.0 and q.c == 0.0

    def test_semicolon_separator(self):
        q = parse_member("a=0;u=1;2;c=0", 2)
        assert list(q.u) == [1.0, 2.0]

    def test_errors(self):
        from abconv import InstanceParseError

        with pytest.raises(InstanceParseError, match="unknown fields"):
            parse_member("a=0,q=1", 1)
        with pytest.raises(InstanceParseError, match="duplicate"):
            parse_member("a=0,a=1", 1)
        with pytest.raises(InstanceParseError, match="expected key=value"):
            parse_member("17", 1)
        with pytest.raises(InstanceParseError, match="bad number"):
            parse_member("a=zero", 1)
        with pytest.raises(InstanceParseError, match="expected 1 entries"):
            parse_member("u=1,2", 1)
        with pytest.raises(InstanceParseError, match="missing level r"):
            parse_epi_point("a=0,u=1", 1)

    def test_epi_point(self):
        point = parse_epi_point("a=0,u=1,1,c=0,r=1.5", 2)
        assert point.r == 1.5 and list(point.phi.u) == [1.0, 1.0]


class TestReproduce:
    def test_known_instance(self, capsys):
        assert main(["reproduce", "ex4.7"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert out.rstrip().endswith("5/5 checks passed")

    @pytest.mark.parametrize("name,count", [
        ("ex4.7-reversed", 3), ("ex4.8", 6), ("ex5.6", 7),
        ("ex6.10", 5), ("ex6.11", 5),
    ])
    def test_other_instances(self, name, count, capsys):
        assert main(["reproduce", name]) == 0
        out = capsys.readouterr().out
        assert f"{count}/{count} checks passed" in out

    def test_unknown_name_exit_code(self, capsys):
        assert main(["reproduce", "ex9.9"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ex9.9" in err


class TestGap:
    def test_table_and_json(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["gap", "ex4.7", "--json", str(out_file)]) == 0
        out = capsys.readouterr().out
        parsed = rows(out)
        assert parsed["instance"] == "ex4.7"
        assert parsed["primal"] == "0.8"
        assert parsed["gap"] == "0"
        assert parsed["weak duality"] == "ok"
        assert out_file.read_text() == report_json(run_report(catalog_instance("ex4.7")))

    def test_json_is_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gap", "ex6.11", "--json", str(a)])
        main(["gap", "ex6.11", "--json", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["primal"] == -9.25

    def test_negative_zero_reads_0_in_the_table(self, capsys):
        assert main(["gap", "ex5.6"]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["primal"] == "0" and parsed["gap"] == "0"

    def test_instance_file_argument(self, tmp_path, capsys):
        from abconv import save_instance

        path = tmp_path / "inst.json"
        save_instance(catalog_instance("ex6.10"), path)
        assert main(["gap", str(path)]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["primal"] == "-19"
        assert parsed["lp"] == "-19"

    @pytest.mark.parametrize("part,dual", [("f", "inf"), ("g", "-inf")])
    def test_a_part_off_every_mesh_point_reads_extended_reals(self, part, dual, tmp_path, capsys):
        # f off the x mesh: an inf over no point is +inf, and so is every
        # value.  g off its meshes: every g* entry is -inf and excludes its
        # member, so the duals and lp read -inf under the +inf primal.
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(infeasible_part_dict(part)))
        with pytest.warns(UserWarning, match="no feasible point"):
            assert main(["gap", str(path)]) == 0
        parsed = rows(capsys.readouterr().out)
        assert [parsed[k] for k in ("primal", "dcp", "ld", "lp", "gap")] == [
            "inf", dual, dual, dual, "inf"]
        assert parsed["weak duality"] == "ok"

    @pytest.mark.parametrize("payload", ["directory", "bad utf-8", "400 digits", "5000 digits"])
    def test_unreadable_instance_file_exits_2(self, payload, tmp_path, capsys):
        from abconv import instance_to_dict

        path = tmp_path / "inst.json"
        data = instance_to_dict(catalog_instance("ex4.7"))
        text = json.dumps(dict(data, f=dict(data["f"], c="BIG")))
        if payload == "directory":
            path.mkdir()
        elif payload == "bad utf-8":
            path.write_bytes(b"\xff\xfe" + text.encode())
        else:
            path.write_text(text.replace('"BIG"', "1" + "0" * int(payload.split()[0])))
        assert main(["gap", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_matrix_entry_that_overflows_exits_2(self, tmp_path, capsys):
        from abconv import instance_to_dict

        data = instance_to_dict(catalog_instance("ex4.7"))
        data["f"]["A"] = [[1e308]]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert main(["gap", str(path)]) == 2
        assert "overflow" in capsys.readouterr().err


class TestConjugate:
    def test_closed_engine(self, capsys):
        assert main(["conjugate", "ex4.7", "--phi", "a=0,u=2,c=0"]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["in input class"] == "True"
        assert parsed["f conjugate"] == "-1"
        assert parsed["f maximizer"] == "(0)"
        assert parsed["composite conjugate"] == "-1"
        assert parsed["engine"] == "closed/closed"

    def test_grid_engine(self, capsys):
        assert main(["conjugate", "ex4.7", "--phi", "a=0,u=2,c=0",
                     "--engine", "grid"]) == 0
        parsed = rows(capsys.readouterr().out)
        assert float(parsed["f conjugate"]) == pytest.approx(-1.0, abs=1e-6)
        assert float(parsed["composite conjugate"]) == pytest.approx(-1.0, abs=1e-6)
        assert parsed["engine"] == "grid/grid"

    def test_member_outside_class(self, capsys):
        assert main(["conjugate", "ex4.7", "--phi", "a=1,u=0,c=0"]) == 0
        assert rows(capsys.readouterr().out)["in input class"] == "False"

    def test_bad_member_exits_2(self, capsys):
        assert main(["conjugate", "ex4.7", "--phi", "a=0,q=1"]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_missing_instance_exits_2(self, capsys):
        assert main(["conjugate", "nope.json", "--phi", "u=1"]) == 2
        assert "no such file or catalog name" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjugate", "ex4.7", "--phi", "u=1", "--engine", "symbolic"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCertify:
    def write(self, tmp_path, payload):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_thm42_certificate(self, tmp_path, capsys):
        cert = self.write(tmp_path, {
            "kind": "thm42", "eps": 1e-3, "x": [-2.0, 3.0],
            "psi": {"a": -1.0, "u": [2.0], "c": 0.0},
        })
        assert main(["certify", "ex4.8", "--cert", cert, "--kind", "thm42"]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["verdict"] == "holds"
        assert parsed["psi_in_family"] == "True"
        assert parsed["conjugate_bound"] == "True"

    def test_thm42_file_with_a_phi_block_exits_2(self, tmp_path, capsys):
        """A thm42 check never reads phi, so a file that gives one is
        rejected rather than certified with it ignored."""
        cert = self.write(tmp_path, {
            "kind": "thm42", "eps": 1e-3, "x": [-2.0, 3.0],
            "psi": {"a": -1.0, "u": [2.0], "c": 0.0}, "phi": {"a": 5.0, "u": [0.0, 0.0]},
        })
        assert main(["certify", "ex4.8", "--cert", cert, "--kind", "thm42"]) == 2
        assert "thm42 takes no phi" in capsys.readouterr().err

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        cert = self.write(tmp_path, {
            "kind": "thm42", "eps": 1e-3, "x": [-2.0, 3.0],
            "psi": {"a": -1.0, "u": [2.0], "c": 0.0},
        })
        assert main(["certify", "ex4.8", "--cert", cert, "--kind", "thm43"]) == 2
        assert "--kind" in capsys.readouterr().err

    def test_a_point_mapped_outside_dom_g_exits_3_naming_g(self, tmp_path, capsys):
        """f(5) is finite; g = 4y^2 on [-1, 1] is +inf at L 5 = 5."""
        quad = {"kind": "quadratic", "A": [[1.0]], "u": [2.0], "c": 1.0}
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "schema_version": "1", "name": "g-boxed", "n": 1, "m": 1, "L": [[1.0]],
            "f": quad, "g": dict(quad, A=[[4.0]], u=[0.0], c=0.0,
                                 domain_box={"lower": [-1.0], "upper": [1.0]}),
            "phi": {"curvature": "nonpos"}, "psi": {"curvature": "zero"}}))
        cert = self.write(tmp_path, {"kind": "thm42", "eps": 1e-3, "x": [5.0],
                                     "psi": {"a": 0.0, "u": [0.0], "c": 0.0}})
        assert main(["certify", str(inst), "--cert", cert, "--kind", "thm42"]) == 3
        assert capsys.readouterr().err == (
            "error: certificate point maps outside dom g: Lx = [5.0]\n")

    def test_optimality_ladder(self, tmp_path, capsys):
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2]})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 0
        parsed = rows(capsys.readouterr().out)
        for eps in ("eps=1", "eps=0.01", "eps=0.0001", "eps=1e-06"):
            assert parsed[eps] == "certified"
        assert parsed["value at x"] == "0.8"
        assert parsed["primal value"] == "0.8"
        assert parsed["verdict"] == "holds"

    @pytest.mark.parametrize("ladder,expected", [
        ({}, "eps=1         certified\n"
             "eps=0.01      certified\n"
             "eps=0.0001    certified\n"
             "eps=1e-06     certified\n"
             "value at x    0.8\n"
             "primal value  0.8\n"
             "verdict       holds\n"),
        # three rungs over two members: the second psi is not tangent at x
        ({"certs": [
            {"kind": "thm42", "eps": eps, "x": [-0.2], "psi": {"a": 0.0, "u": [u], "c": 0.0}}
            for eps, u in ((1.0, -1.6), (1e-3, -1.0), (1e-6, -1.6))]},
         "eps=1         certified\n"
         "eps=0.001     not certified\n"
         "eps=1e-06     certified\n"
         "value at x    0.8\n"
         "primal value  0.8\n"
         "verdict       does not hold\n"),
    ])
    def test_optimality_ladder_bytes(self, ladder, expected, tmp_path, capsys):
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2], **ladder})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("field,value", [("ladder", None), ("certs", True),
                                             ("ladder", 0.5)])
    def test_ladder_that_is_not_a_list_exits_2(self, field, value, tmp_path, capsys):
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2], field: value})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 2
        assert "must be JSON lists" in capsys.readouterr().err

    def test_a_ladder_beside_certs_exits_2(self, tmp_path, capsys):
        """Each given certificate is checked at its own eps, so a ladder
        beside them would be read and then ignored."""
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2], "ladder": [1.0], "certs": [
            {"kind": "thm42", "eps": 1e-3, "x": [-0.2], "psi": {"a": 0.0, "u": [-1.6], "c": 0.0}}]})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 2
        assert "give a ladder or certs, not both" in capsys.readouterr().err

    def test_nan_eps_exits_2(self, tmp_path, capsys):
        cert = self.write(tmp_path, {
            "kind": "thm42", "eps": float("nan"), "x": [-2.0, 3.0],
            "psi": {"a": -1.0, "u": [2.0], "c": 0.0},
        })
        assert main(["certify", "ex4.8", "--cert", cert, "--kind", "thm42"]) == 2
        assert "eps: bad number nan" in capsys.readouterr().err

    def test_nan_rung_exits_2(self, tmp_path, capsys):
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2],
                                     "ladder": [1.0, float("nan")]})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 2
        assert "ladder: bad number nan" in capsys.readouterr().err

    def test_empty_ladder_exits_2(self, tmp_path, capsys):
        """No rung means nothing is checked: the file is rejected, not
        reported as holding."""
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2], "ladder": []})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 2
        assert "at least one eps" in capsys.readouterr().err

    @pytest.mark.parametrize("rung", [-1e-3, "inf", "-inf"])
    def test_rung_that_is_negative_or_infinite_exits_2(self, rung, tmp_path, capsys):
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2], "ladder": [1.0, rung]})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 2
        assert "is not finite and nonnegative" in capsys.readouterr().err

    def test_ladder_certificate_at_another_point_exits_2(self, tmp_path, capsys):
        cert = self.write(tmp_path, {"kind": "thm44", "x": [-0.2], "certs": [
            {"kind": "thm42", "eps": 1e-3, "x": [0.5], "psi": {"a": 0.0, "u": [-1.6], "c": 0.0}}]})
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm44"]) == 2
        assert "must share the point x" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["inf", -1e-3])
    def test_infinite_or_negative_eps_exits_2(self, eps, tmp_path, capsys):
        """At eps = inf every condition holds vacuously, even at x = 5,
        which is not the minimizer."""
        cert = self.write(tmp_path, {
            "kind": "thm42", "eps": eps, "x": [5.0],
            "psi": {"a": 0.0, "u": [-1.6], "c": 0.0},
        })
        assert main(["certify", "ex4.7", "--cert", cert, "--kind", "thm42"]) == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    def test_missing_cert_file_exits_2(self, capsys):
        assert main(["certify", "ex4.7", "--cert", "absent.json",
                     "--kind", "thm42"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestStrong:
    def test_decomposes_epigraph_point(self, capsys):
        assert main(["strong", "ex5.6", "--epi-point", "a=0,u=1,1,c=0,r=1.0"]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["input member"] == "a=0 u=(1, 1) c=0"
        assert parsed["input level"] == "1"
        assert parsed["output member"] == "a=0 u=(0) c=0"
        assert parsed["output level"] == "0"
        assert parsed["input membership"] == "True"
        assert parsed["output membership"] == "True"

    def test_point_outside_epigraph(self, capsys):
        assert main(["strong", "ex5.6", "--epi-point", "a=0,u=1,1,c=0,r=0.05"]) == 0
        assert "outside the composite conjugate epigraph" in capsys.readouterr().out

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_level_exits_2(self, level, capsys):
        assert main(["strong", "ex5.6", "--epi-point", f"a=0,u=1,1,r={level}"]) == 2
        assert "epi-point.r: bad number" in capsys.readouterr().err

    def test_missing_level_exits_2(self, capsys):
        assert main(["strong", "ex5.6", "--epi-point", "a=0,u=1,1,c=0"]) == 2
        assert "missing level r" in capsys.readouterr().err


class TestLagrange:
    def test_full_report(self, capsys):
        assert main([
            "lagrange", "ex6.11", "--lsc-probe",
            "--intersection", "a=1,u=1,c=0|a=-1,u=-1,c=0|-0.1",
        ]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["primal"] == "-9.25"
        assert parsed["lagrange dual"] == "-9.25"
        assert parsed["convexified primal"] == "-9.25"
        assert parsed["dual <= convexified"] == "True"
        assert parsed["convexification preserves value"] == "True"
        assert parsed["value function lsc at 0"] == "True"
        assert parsed["intersection property"].startswith("holds at t=")

    @pytest.mark.parametrize("part", ["f", "g"])
    def test_dual_below_convexified_with_a_part_off_every_mesh_point(self, part, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(infeasible_part_dict(part)))
        with pytest.warns(UserWarning, match="no feasible point"):
            assert main(["lagrange", str(path)]) == 0
        assert rows(capsys.readouterr().out)["dual <= convexified"] == "True"

    def test_intersection_without_witness(self, capsys):
        assert main([
            "lagrange", "ex6.11",
            "--intersection", "a=1,u=1,c=0|a=-1,u=-1,c=0|0.1",
        ]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["intersection property"] == "no dominating combination"

    @pytest.mark.parametrize("arg", ["a=1,u=1|a=-1,u=-1|nan", "a=1,u=1|a=-1,u=-1|inf",
                                     "a=nan,u=1|a=-1,u=-1|0"])
    def test_non_finite_number_exits_2(self, arg, capsys):
        assert main(["lagrange", "ex4.7", "--intersection", arg]) == 2
        assert "bad number" in capsys.readouterr().err

    def test_malformed_intersection_exits_2(self, capsys):
        assert main(["lagrange", "ex6.11", "--intersection", "a=1|a=2"]) == 2
        assert "phi1|phi2|alpha" in capsys.readouterr().err


class TestRandom:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["random", "--seed", "7", "-o", str(a)]) == 0
        assert main(["random", "--seed", "7", "-o", str(b)]) == 0
        out = capsys.readouterr().out
        assert "wrote random-7 (1 -> 1)" in out
        assert a.read_bytes() == b.read_bytes()

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n": 2, "m": 1}')
        out_file = tmp_path / "inst.json"
        assert main(["random", "--seed", "3", "--spec", str(spec),
                     "-o", str(out_file)]) == 0
        assert "(2 -> 1)" in capsys.readouterr().out
        assert json.loads(out_file.read_text())["n"] == 2

    def test_malformed_spec_json_names_the_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{\n  "n": 2,\n  "m": \n}\n')
        assert main(["random", "--seed", "1", "--spec", str(spec),
                     "-o", str(tmp_path / "x.json")]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n": 0}')
        assert main(["random", "--seed", "1", "--spec", str(spec),
                     "-o", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()
        assert main(["random", "--seed", "1", "--spec", str(tmp_path / "no.json"),
                     "-o", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("spec", [
        '{"n": true}',
        '{"l_scale": "x"}',
        '{"slope_scale": [1]}',
        '{"f_modulus": ["a", 1]}',
        '{"g_modulus": [0, "inf"]}',
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        assert main(["random", "--seed", "1", "--spec", str(path),
                     "-o", str(tmp_path / "x.json")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("block, field, value", [
        ("search", "psi_slope_points_per_axis", 5.0),
        ("search", "psi_slope_points_per_axis", "5"),
        (None, "n", True),
        ("psi", "includes_constants", "false"),
        ("search", "psi_curv_grid", True),
        ("search", "psi_curv_grid", -1),
        ("search", "psi_curv_grid", 0),
        ("search", "refine_rounds", 0.5),
        ("f", "c", [1]),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, block, field, value):
        path = tmp_path / "inst.json"
        main(["random", "--seed", "3", "-o", str(path)])
        data = json.loads(path.read_text())
        (data if block is None else data[block])[field] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["gap", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["points_per_axis", "psi_slope_points_per_axis"])
    def test_mesh_over_the_cap_exits_2(self, tmp_path, capsys, field):
        path = tmp_path / "inst.json"
        main(["random", "--seed", "3", "-o", str(path)])
        data = json.loads(path.read_text())
        data["search"][field] = 10**6 + 1  # the instance is 1-D
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["gap", str(path)]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out_file = tmp_path / "inst.json"
        assert main(["random", "--seed", "-1", "-o", str(out_file)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out_file.exists()

    def test_generated_instance_is_loadable(self, tmp_path, capsys):
        out_file = tmp_path / "inst.json"
        main(["random", "--seed", "11", "-o", str(out_file)])
        capsys.readouterr()
        assert main(["gap", str(out_file)]) == 0
        parsed = rows(capsys.readouterr().out)
        assert parsed["weak duality"] == "ok"


class TestUsageAndEnvironment:
    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjugate", "ex4.7"])  # --phi is required
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["1e-3", "-1", "abc"])
    def test_results_do_not_depend_on_the_environment(self, value, tmp_path):
        """The tolerances are fixed: a stray, malformed or negative
        ABCONV_TOL (once a knob) changes neither the exit code nor a byte."""
        out = tmp_path / "gap.json"
        proc = subprocess.run(
            [sys.executable, "-m", "abconv", "gap", "ex4.7", "--json", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "ABCONV_TOL": value},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == report_json(run_report(catalog_instance("ex4.7")))

    def test_catalog_commands_do_not_import_numpy_ma(self):
        """numpy's plain ``np.unique`` imports ``numpy.ma`` (17-40 ms of a
        cold start); no ``gap`` or ``reproduce`` on a catalog name calls it."""
        script = (
            "import contextlib, io, sys\n"
            "from abconv import catalog_names\n"
            "from abconv.cli import main\n"
            "for cmd in ('gap', 'reproduce'):\n"
            "    for name in catalog_names():\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            main([cmd, name])\n"
            "        if 'numpy.ma' in sys.modules:\n"
            "            sys.exit(f'{cmd} {name} imported numpy.ma')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_the_package_reads_no_environment_variable(self):
        """No module of the package imports os, so no setting can come in
        through the environment unnoticed."""
        src = Path(__file__).resolve().parent.parent / "src" / "abconv"
        modules = sorted(src.glob("*.py"))
        assert modules
        for path in modules:
            text = path.read_text()
            assert not re.search(r"^\s*(import|from)\s+os\b", text, re.M), path.name
            assert "os.environ" not in text and "getenv" not in text, path.name

    def test_frozen_models_get_no_state_after_construction(self):
        """``object.__setattr__`` appears only inside a ``__post_init__``, so
        no hidden state can be attached to a frozen model unnoticed."""
        src = Path(__file__).resolve().parent.parent / "src" / "abconv"
        modules = sorted(src.glob("*.py"))
        assert modules
        found = []

        def visit(node, function, path):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"
                    and function != "__post_init__"):
                found.append(f"{path.name}:{node.lineno} in {function}")
            for child in ast.iter_child_nodes(node):
                visit(child, function, path)

        for path in modules:
            visit(ast.parse(path.read_text()), None, path)
        assert not found

    def test_every_import_is_used(self):
        """Each name a module imports is read in that module: a leftover
        import keeps a second way in alive.  ``__init__.py`` imports to
        re-export, and ``from __future__`` binds nothing."""
        src = Path(__file__).resolve().parent.parent / "src" / "abconv"
        modules = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
        assert modules
        unused = []
        for path in modules:
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in used:
                            unused.append(f"{path.name}:{node.lineno} {name}")
        assert not unused

    def test_the_dual_terms_of_one_member_have_one_definition(self):
        """In ``duality.py`` and ``lagrange.py`` no conjugate of the
        instance's g is taken outside ``_member_gstar``, and none of f at a
        pulled-back output member (``pullback(...)``, its negative, or a
        name bound to either): every one-member reader of g*(psi) or
        inf(f + psi o L) goes through ``_member_gstar`` or ``_member_inf``,
        the dual sweep's own definitions, so a second route cannot return."""
        src = Path(__file__).resolve().parent.parent / "src" / "abconv"
        conjugates = {"conjugate_value", "conjugate_grid", "conjugate_closed_form",
                      "_subdiff_terms", "eps_subdiff_contains"}
        found = []

        def unwrap(node):
            return node.operand if isinstance(node, ast.UnaryOp) else node

        def is_pullback(node, pulled):
            node = unwrap(node)
            return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "pullback"
                    or isinstance(node, ast.Name) and node.id in pulled)

        def part(node):
            return node.attr if isinstance(node, ast.Attribute) else None

        def visit(node, function, path, pulled):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in conjugates and node.args):
                on_g = part(node.args[0]) == "g" and function != "_member_gstar"
                at_pullback = (part(node.args[0]) == "f" and len(node.args) > 1
                               and is_pullback(node.args[1], pulled))
                if on_g or at_pullback:
                    found.append(f"{path.name}:{node.lineno} {node.func.id} in {function}")
            for child in ast.iter_child_nodes(node):
                visit(child, function, path, pulled)

        for name in ("duality.py", "lagrange.py"):
            tree = ast.parse((src / name).read_text())
            pulled = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      and is_pullback(node.value, set())
                      for target in node.targets if isinstance(target, ast.Name)}
            visit(tree, None, src / name, pulled)
        assert not found

    def test_every_module_level_name_is_read(self):
        """Each function, class and constant a module defines at top level
        is read somewhere in the package or exported by ``__init__``: a
        leftover name keeps a second copy of one fact alive."""
        src = Path(__file__).resolve().parent.parent / "src" / "abconv"
        trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
        assert len(trees) > 1
        read = {node.id for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {alias.name for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        unread = []
        for name, tree in trees.items():
            for node in tree.body if name != "__init__.py" else ():
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                unread += [f"{name}:{node.lineno} {d}" for d in defined if d not in read]
        assert not unread

    @pytest.mark.skipif(
        shutil.which("abconv") is None,
        reason="abconv console script not on PATH; install with `pip install -e . --no-build-isolation`",
    )
    def test_console_script_is_installed(self):
        proc = subprocess.run(
            ["abconv", "reproduce", "ex4.7"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "5/5 checks passed" in proc.stdout

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abconv", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "abconv" in proc.stdout
