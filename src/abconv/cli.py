"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 numerical invariant violation,
4 unknown catalog name.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .catalog import catalog_instance, catalog_names, reproduce_checks
from .config import VALUE_TOL, values_agree
from .conjugates import conjugate_closed_form, conjugate_grid, conjugate_value
from .duality import (
    EpiPoint,
    epi_contains,
    epi_decompose,
    primal_value,
    verify_gap_certificate,
    verify_optimality_at,
)
from .errors import InstanceParseError, InvariantViolation, UnknownCatalogName
from .instances import (
    _member_to_dict,
    load_certificate_file,
    load_instance,
    read_json,
    save_instance,
)
from .lagrange import (
    LagrangianContext,
    intersection_property,
    ld_value,
    lp_value,
    lsc_probe_at_zero,
)
from .quadratics import GeneralizedQuadratic
from .randomgen import RandomSpec, random_instance
from .report import _fmt, _fmt_member, _fmt_rows, _fmt_vec, report_json, report_table, run_report


# ---------------------------------------------------------------------------
# Argument parsing helpers


def _parse_fields(text: str, where: str) -> dict[str, str]:
    """Parse ``a=1,u=2,3,c=0`` into a field dict.

    Comma-separated ``key=value`` pairs; a bare segment continues the
    previous field's vector value (semicolons are accepted as element
    separators too)."""
    fields: dict[str, str] = {}
    key = None
    for part in text.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, val = part.split("=", 1)
            key = key.strip()
            if key in fields:
                raise InstanceParseError(f"{where}: duplicate field {key!r}")
            fields[key] = val.strip()
        elif key is not None:
            fields[key] += "," + part
        else:
            raise InstanceParseError(f"{where}: expected key=value, got {part!r}")
    return fields


def _parse_float(text: str, where: str) -> float:
    """A finite number: nan and inf are rejected like malformed text."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InstanceParseError(f"{where}: bad number {text!r}")
    return value


def _member_from_fields(
    fields: dict[str, str], dim: int, where: str
) -> GeneralizedQuadratic:
    a = _parse_float(fields.get("a", "0"), f"{where}.a")
    c = _parse_float(fields.get("c", "0"), f"{where}.c")
    if "u" in fields:
        u = [_parse_float(v, f"{where}.u") for v in fields["u"].split(",")]
    else:
        u = [0.0] * dim
    if len(u) != dim:
        raise InstanceParseError(f"{where}.u: expected {dim} entries, got {len(u)}")
    return GeneralizedQuadratic.iso(dim, a, u, c)


def parse_member(text: str, dim: int, where: str = "member") -> GeneralizedQuadratic:
    fields = _parse_fields(text, where)
    unknown = set(fields) - {"a", "u", "c"}
    if unknown:
        raise InstanceParseError(f"{where}: unknown fields {sorted(unknown)}")
    return _member_from_fields(fields, dim, where)


def parse_epi_point(text: str, dim: int) -> EpiPoint:
    fields = _parse_fields(text, "epi-point")
    unknown = set(fields) - {"a", "u", "c", "r"}
    if unknown:
        raise InstanceParseError(f"epi-point: unknown fields {sorted(unknown)}")
    if "r" not in fields:
        raise InstanceParseError("epi-point: missing level r")
    r = _parse_float(fields.pop("r"), "epi-point.r")
    return EpiPoint(_member_from_fields(fields, dim, "epi-point"), r)


def _load(ref: str):
    """Instance from a file path, falling back to the bundled catalog."""
    path = Path(ref)
    if path.exists():
        return load_instance(path)
    if ref in catalog_names():
        return catalog_instance(ref)
    raise InstanceParseError(f"no such file or catalog name: {ref}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_conjugate(args) -> int:
    inst = _load(args.instance)
    phi = parse_member(args.phi, inst.L.in_dim, "phi")
    conjugate = {
        "auto": lambda f: conjugate_value(f, phi, grid=inst.x_search),
        "closed": lambda f: conjugate_closed_form(f, phi),
        "grid": lambda f: conjugate_grid(f, phi, inst.x_search),
    }[args.engine]
    fstar = conjugate(inst.f)
    cstar = conjugate(inst.composite_objective())
    rows = [
        ("member", args.phi),
        ("in input class", str(inst.phi.contains(phi))),
        ("f conjugate", _fmt(fstar.value)),
        ("f maximizer", "-" if fstar.maximizer is None else _fmt_vec(fstar.maximizer)),
        ("composite conjugate", _fmt(cstar.value)),
        ("composite maximizer", "-" if cstar.maximizer is None else _fmt_vec(cstar.maximizer)),
        ("engine", f"{fstar.engine}/{cstar.engine}"),
    ]
    print(_fmt_rows(rows), end="")
    return 0


def _cmd_gap(args) -> int:
    inst = _load(args.instance)
    report = run_report(inst)
    print(report_table(report), end="")
    if args.json:
        Path(args.json).write_text(report_json(report))
    return 0 if report["weak_duality_ok"] else 3


def _cmd_certify(args) -> int:
    inst = _load(args.instance)
    data = load_certificate_file(args.cert, inst.L.in_dim, inst.L.out_dim)
    if data["kind"] != args.kind:
        raise InstanceParseError(
            f"certificate file has kind {data['kind']!r}, --kind says {args.kind!r}"
        )
    if args.kind in ("thm42", "thm43"):
        check = verify_gap_certificate(inst, data["certs"][0])
        rows = [(k, str(v)) for k, v in check.conditions.items()]
        rows.append(("verdict", "holds" if check.holds else "does not hold"))
        print(_fmt_rows(rows), end="")
        return 0
    certs = tuple(data["certs"]) or None
    result = verify_optimality_at(inst, data["x"], eps_ladder=data["ladder"], certs=certs)
    rows = [
        (f"eps={eps:g}", "certified" if ok else "not certified")
        for eps, ok in result.ladder
    ]
    rows.append(("value at x", _fmt(result.value_at_x)))
    rows.append(("primal value", _fmt(result.primal)))
    rows.append(("verdict", "holds" if result.holds else "does not hold"))
    print(_fmt_rows(rows), end="")
    return 0


def _cmd_strong(args) -> int:
    inst = _load(args.instance)
    point = parse_epi_point(args.epi_point, inst.L.in_dim)
    if not epi_contains(inst, "composite", point):
        print("point is outside the composite conjugate epigraph")
        return 0
    split = epi_decompose(inst, point)
    if split is None:
        print("point is in the epigraph, but no split was found on the member grid")
        return 0
    rows = [
        ("input member", _fmt_member(_member_to_dict(split.phi1))),
        ("input level", _fmt(split.c_phi)),
        ("output member", _fmt_member(_member_to_dict(split.psi))),
        ("output level", _fmt(split.c_psi)),
        ("input membership", str(epi_contains(inst, "f", EpiPoint(split.phi1, split.c_phi)))),
        ("output membership", str(epi_contains(inst, "g", EpiPoint(split.psi, split.c_psi)))),
    ]
    print(_fmt_rows(rows), end="")
    return 0


def _cmd_lagrange(args) -> int:
    inst = _load(args.instance)
    ctx = LagrangianContext(inst)
    p = primal_value(inst)
    ld = ld_value(ctx)
    lp = lp_value(ctx)
    rows = [
        ("primal", _fmt(p.value)),
        ("lagrange dual", _fmt(ld.value)),
        ("convexified primal", _fmt(lp.value)),
        ("dual <= convexified", str(ld.value <= lp.value + VALUE_TOL)),
        ("convexification preserves value", str(values_agree(lp.value, p.value))),
    ]
    if args.lsc_probe:
        rows.append(("value function lsc at 0", str(lsc_probe_at_zero(ctx))))
    if args.intersection:
        parts = args.intersection.split("|")
        if len(parts) != 3:
            raise InstanceParseError(
                "--intersection wants phi1|phi2|alpha (members in a=..,u=..,c=.. form)"
            )
        phi1 = parse_member(parts[0], inst.L.in_dim, "phi1")
        phi2 = parse_member(parts[1], inst.L.in_dim, "phi2")
        alpha = _parse_float(parts[2], "alpha")
        witness = intersection_property(phi1, phi2, alpha)
        if witness is None:
            rows.append(("intersection property", "no dominating combination"))
        else:
            rows.append(
                ("intersection property",
                 f"holds at t={witness.t0:.12g} (min {_fmt(witness.min_value)})")
            )
    print(_fmt_rows(rows), end="")
    return 0


def _cmd_reproduce(args) -> int:
    checks = reproduce_checks(args.name)
    failed = 0
    for row in checks:
        mark = "PASS" if row.passed else "FAIL"
        failed += not row.passed
        print(f"{mark}  {row.label} ({row.detail})")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 3


def _cmd_random(args) -> int:
    if args.seed < 0:
        raise InstanceParseError(f"--seed: expected a non-negative integer, got {args.seed}")
    spec = RandomSpec.from_dict(read_json(args.spec)) if args.spec else RandomSpec()
    inst = random_instance(spec, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {inst.name} ({spec.n} -> {spec.m}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abconv",
        description="Conjugates and composite duality over quadratic function classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugate", help="class conjugates of f and f + g o L")
    p.add_argument("instance", help="instance file or catalog name")
    p.add_argument("--phi", required=True, help="member, e.g. a=-1,u=2,c=0")
    p.add_argument("--engine", choices=["auto", "closed", "grid"], default="auto")
    p.set_defaults(fn=_cmd_conjugate)

    p = sub.add_parser("gap", help="primal, duals, and gap report")
    p.add_argument("instance")
    p.add_argument("--json", metavar="OUT", help="also write the report as JSON")
    p.set_defaults(fn=_cmd_gap)

    p = sub.add_parser("certify", help="check a zero-gap certificate file")
    p.add_argument("instance")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.add_argument("--kind", required=True, choices=["thm42", "thm43", "thm44"])
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("strong", help="decompose a composite conjugate epigraph point")
    p.add_argument("instance")
    p.add_argument("--epi-point", required=True, dest="epi_point",
                   help="member and level, e.g. a=0,u=1,1,c=0,r=1")
    p.set_defaults(fn=_cmd_strong)

    p = sub.add_parser("lagrange", help="lagrange dual and convexified primal")
    p.add_argument("instance")
    p.add_argument("--lsc-probe", action="store_true", dest="lsc_probe",
                   help="sample the value function for lower semicontinuity at 0")
    p.add_argument("--intersection", metavar="PHI1|PHI2|ALPHA",
                   help="test the two-member level-set intersection property")
    p.set_defaults(fn=_cmd_lagrange)

    p = sub.add_parser("reproduce", help="recompute a bundled instance's reference facts")
    p.add_argument("name", help=f"one of: {', '.join(catalog_names())}")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("random", help="generate a seeded random instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spec", help="generator spec JSON")
    p.add_argument("-o", "--out", required=True, help="output instance file")
    p.set_defaults(fn=_cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownCatalogName as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
