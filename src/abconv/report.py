"""Whole-instance summary: primal, both duals, gap, flags, certificates.

The JSON form is deterministic (17-significant-digit floats, fixed key
order) so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

from .duality import _tangent_ladder, _weak_duality, primal_value
from .instances import _member_to_dict, dumps
from .lagrange import LagrangianContext, ld_value, lp_value
from .objectives import INF

CERT_LADDER = (1.0, 1e-3, 1e-6)


def _certificate_entries(instance, minimizer) -> list[dict]:
    if minimizer is None:
        return []
    cert, checks = _tangent_ladder(instance, minimizer, CERT_LADDER)
    if cert is None:
        return [{"eps": eps, "kind": None, "holds": False,
                 "note": "no tangent member available"} for eps in CERT_LADDER]
    entries = []
    for eps, check in zip(CERT_LADDER, checks):
        entry = {
            "eps": eps,
            "kind": cert.kind,
            "holds": check.holds,
            "x": list(cert.x),
            "psi": _member_to_dict(cert.psi),
        }
        if cert.phi is not None:
            entry["phi"] = _member_to_dict(cert.phi)
        entry["conditions"] = check.conditions
        entries.append(entry)
    return entries


def run_report(instance, certificates: bool = True) -> dict:
    """All duality quantities for one instance, as a plain dict."""
    ctx = LagrangianContext(instance)
    p = primal_value(instance)
    d = ld_value(ctx)  # same sweep tables as the conjugate dual
    lp = lp_value(ctx)
    gap, weak_ok = _weak_duality(p.value, d.value)
    flags = sorted(set(p.flags + d.flags + lp.flags))
    if not weak_ok:
        flags.append("weak_duality_violated")
    report = {
        "name": instance.name,
        "primal": p.value,
        "dcp": d.value,
        "ld": d.value,
        "lp": lp.value,
        "gap": gap,
        "flags": flags,
        "attaining_psi": None if d.attaining is None else _member_to_dict(d.attaining),
        "certificates": _certificate_entries(instance, p.minimizer) if certificates else [],
        "weak_duality_ok": weak_ok,
    }
    return report


def report_json(report: dict) -> str:
    return dumps(report) + "\n"


def _fmt(value: float) -> str:
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    return f"{value + 0.0:.12g}"  # +0.0 folds -0.0 into 0


def _fmt_vec(values) -> str:
    return "(" + ", ".join(_fmt(float(v)) for v in values) + ")"


def _fmt_member(member: dict) -> str:
    """A member in the ``_member_to_dict`` form, as ``a=… u=(…) c=…``."""
    return f"a={_fmt(member['a'])} u={_fmt_vec(member['u'])} c={_fmt(member['c'])}"


def _fmt_rows(rows: list[tuple[str, str]]) -> str:
    """Key/value rows as fixed-width lines: keys padded to the longest key
    plus two spaces."""
    width = max(len(k) for k, _ in rows) + 2
    return "".join(f"{k:<{width}}{v}\n" for k, v in rows)


def report_table(report: dict) -> str:
    """Fixed-width text table over the scalar report fields."""
    rows = [("instance", report["name"] or "(unnamed)")]
    for key in ("primal", "dcp", "ld", "lp", "gap"):
        rows.append((key, _fmt(report[key])))
    rows.append(("flags", ", ".join(report["flags"]) or "-"))
    att = report["attaining_psi"]
    rows.append(("attaining psi", "-" if att is None else _fmt_member(att)))
    for entry in report["certificates"]:
        label = f"certificate eps={entry['eps']:g}"
        if entry.get("kind") is None:
            rows.append((label, "unavailable"))
        else:
            rows.append((label, f"{entry['kind']} holds={entry['holds']}"))
    rows.append(("weak duality", "ok" if report["weak_duality_ok"] else "VIOLATED"))
    return _fmt_rows(rows)
