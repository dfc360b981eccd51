"""Instance and certificate files (JSON, schema version "1").

Floats are serialized with 17 significant digits and infinities as the
strings "inf"/"-inf", so files round-trip bit-exactly and stay valid strict
JSON.  Dictionary key order is fixed, making serialization deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .config import VALUE_TOL
from .conjugates import FamilySearchGrid, GridSpec, default_points_per_axis
from .duality import GapCertificate, ProblemInstance
from .errors import InstanceParseError
from .objectives import Box, Objective
from .quadratics import CurvatureSpec, Family, GeneralizedQuadratic, LinearMap

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Serialization primitives


def _format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise InstanceParseError("cannot serialize NaN")
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text (17-significant-digit floats, inf strings).

    One pass: exact types are tried first, and a list of plain floats and
    ints is formatted in one join (its text holds an "n" only for inf or
    nan, which take the per-value path)."""
    if type(obj) is float:
        return _format_float(obj)
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float or type(v) is int for v in obj):
            text = ", ".join([format(v, ".17g") if type(v) is float else str(v) for v in obj])
            if "n" not in text:
                return "[" + text + "]"
        parts = [dumps(v, indent + 1) for v in obj]
        if not any(isinstance(v, (dict, list, tuple)) or isinstance(v, np.ndarray) and v.ndim
                   for v in obj):
            return "[" + ", ".join(parts) + "]"
        inner = "  " * (indent + 1)
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + "  " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        items = [
            f"{inner}{encode_basestring_ascii(str(k))}: {dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(obj, np.ndarray):  # a 0-d array is its scalar
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    raise InstanceParseError(f"cannot serialize {type(obj).__name__}")


def _as_float(value, where: str) -> float:
    if isinstance(value, str):
        if value == "inf":
            return float("inf")
        if value == "-inf":
            return float("-inf")
        raise InstanceParseError(f"{where}: bad number {value!r}")
    # value != value holds for NaN alone, which Python's json reads
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise InstanceParseError(f"{where}: bad number {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InstanceParseError(f"{where}: number out of range") from None


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise InstanceParseError(f"{where}: expected true or false, got {value!r}")
    return value


def _as_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise InstanceParseError(f"{where}: expected a list")
    return np.array([_as_float(v, where) for v in value], dtype=float)


def _as_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InstanceParseError(f"{where}: expected a list of rows")
    widths = {len(r) for r in value}
    if len(widths) != 1:
        raise InstanceParseError(f"{where}: ragged matrix rows")
    return np.array([[_as_float(v, where) for v in r] for r in value], dtype=float)


# ---------------------------------------------------------------------------
# Field blocks


def _floats(values) -> list:
    """An array as nested lists of Python floats, -0.0 written as 0.0:
    ``dumps`` writes -0.0 as ``-0``, which ``json.loads`` reads back as the
    integer 0, so a second dump would write ``0`` and break the round trip."""
    return (np.asarray(values, dtype=float) + 0.0).tolist()


def _box_to_dict(box: Box) -> dict:
    return {"lower": _floats(box.lower), "upper": _floats(box.upper)}


def _box_from_dict(data, where: str) -> Box:
    if not isinstance(data, dict):
        raise InstanceParseError(f"{where}: expected an object")
    try:
        return Box(_as_vector(data["lower"], where), _as_vector(data["upper"], where))
    except KeyError as exc:
        raise InstanceParseError(f"{where}: missing field {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class _Blackbox:
    """A ``blackbox-poly`` objective's callable: its quadratic behind an
    opaque ``fn``, so every consumer goes through the grid engines, while
    the writer can still read the payload back."""

    quad: GeneralizedQuadratic

    def __call__(self, x) -> float:
        return float(self.quad(np.asarray(x, dtype=float)))


def _objective_to_dict(obj: Objective) -> dict:
    quad = obj.fn.quad if isinstance(obj.fn, _Blackbox) else obj.quad
    if quad is None:
        raise InstanceParseError(
            "only quadratic-backed objectives can be serialized"
        )
    out = {
        "kind": "quadratic" if obj.quad is not None else "blackbox-poly",
        "A": _floats(quad.A),
        "u": _floats(quad.u),
        "c": quad.c + 0.0,
    }
    if obj.domain_box is not None:
        out["domain_box"] = _box_to_dict(obj.domain_box)
    return out


def _objective_from_dict(data, dim: int, where: str) -> Objective:
    if not isinstance(data, dict):
        raise InstanceParseError(f"{where}: expected an object")
    kind = data.get("kind")
    if kind not in ("quadratic", "blackbox-poly"):
        raise InstanceParseError(f"{where}.kind: expected quadratic|blackbox-poly")
    for fieldname in ("A", "u", "c"):
        if fieldname not in data:
            raise InstanceParseError(f"{where}.{fieldname}: missing")
    A = _as_matrix(data["A"], f"{where}.A")
    u = _as_vector(data["u"], f"{where}.u")
    c = _as_float(data["c"], f"{where}.c")
    if A.shape != (dim, dim):
        raise InstanceParseError(f"{where}.A: shape {A.shape} != ({dim}, {dim})")
    if u.shape != (dim,):
        raise InstanceParseError(f"{where}.u: length {u.shape[0]} != {dim}")
    box = None
    if data.get("domain_box") is not None:
        box = _box_from_dict(data["domain_box"], f"{where}.domain_box")
        if box.dim != dim:
            raise InstanceParseError(f"{where}.domain_box: dimension mismatch")
    try:
        quad = GeneralizedQuadratic(dim, A, u, c)
    except ValueError as exc:
        raise InstanceParseError(f"{where}: {exc}") from exc
    if kind == "quadratic":
        return Objective.quadratic(quad, domain_box=box)
    return Objective.from_callable(dim, _Blackbox(quad), domain_box=box)


def _family_to_dict(family: Family) -> dict:
    out = {"curvature": family.curvature.label()}
    if not family.includes_constants:
        out["includes_constants"] = False
    return out


def _family_from_dict(data, dim: int, where: str) -> Family:
    if not isinstance(data, dict) or "curvature" not in data:
        raise InstanceParseError(f"{where}: expected an object with 'curvature'")
    try:
        spec = CurvatureSpec.parse(str(data["curvature"]))
    except ValueError as exc:
        raise InstanceParseError(f"{where}.curvature: {exc}") from exc
    includes = _as_bool(
        data.get("includes_constants", True), f"{where}.includes_constants"
    )
    return Family(dim, spec, includes_constants=includes)


def _member_to_dict(q: GeneralizedQuadratic, fold: bool = False) -> dict:
    """An isotropic member as ``a``, ``u``, ``c``.  ``fold`` writes -0.0 as
    0.0, as files need; the ``gap --json`` report keeps its ``-0`` bytes
    (adding -0.0 changes no bit of any float)."""
    zero = 0.0 if fold else -0.0
    a = float(q.A[0, 0]) if q.dim else 0.0
    return {"a": a + zero, "u": (q.u + zero).tolist(), "c": q.c + zero}


def _member_from_dict(data, dim: int, where: str) -> GeneralizedQuadratic:
    if not isinstance(data, dict):
        raise InstanceParseError(f"{where}: expected an object")
    a = _as_float(data.get("a", 0.0), f"{where}.a")
    u = _as_vector(data["u"], f"{where}.u") if "u" in data else np.zeros(dim)
    c = _as_float(data.get("c", 0.0), f"{where}.c")
    if u.shape != (dim,):
        raise InstanceParseError(f"{where}.u: length {u.shape[0]} != {dim}")
    return GeneralizedQuadratic.iso(dim, a, u, c)


# ---------------------------------------------------------------------------
# Instances


def _default_y_points(n: int, m: int, x_points: int) -> int:
    """The y mesh density of a file that gives none: x's when m == n."""
    return x_points if m == n else default_points_per_axis(m)


def instance_to_dict(instance: ProblemInstance) -> dict:
    """Descriptor dict written from the model.  No float in it is -0.0, so
    dumping, loading and dumping again gives the same bytes."""
    search = {
        "psi_slope_box": _box_to_dict(instance.psi_search.slope_box),
        "psi_curv_grid": _floats(instance.psi_search.curvatures),
        "psi_slope_points_per_axis": instance.psi_search.slope_points_per_axis,
        "x_box": _box_to_dict(instance.x_search.box),
        "y_box": _box_to_dict(instance.y_search.box),
        "points_per_axis": instance.x_search.points_per_axis,
        "refine_rounds": instance.x_search.refine_rounds,
    }
    # Written only where the reader's defaults differ, so no older file changes.
    x, y = instance.x_search, instance.y_search
    if y.points_per_axis != _default_y_points(instance.L.in_dim, instance.L.out_dim,
                                              x.points_per_axis):
        search["y_points_per_axis"] = y.points_per_axis
    if y.refine_rounds != x.refine_rounds:
        search["y_refine_rounds"] = y.refine_rounds
    return {
        "schema_version": SCHEMA_VERSION,
        "name": instance.name,
        "n": instance.L.in_dim,
        "m": instance.L.out_dim,
        "L": _floats(instance.L.matrix),
        "f": _objective_to_dict(instance.f),
        "g": _objective_to_dict(instance.g),
        "phi": _family_to_dict(instance.phi),
        "psi": _family_to_dict(instance.psi),
        "search": search,
    }


def _search_box(search: dict, key: str, dim: int) -> Box:
    """The box ``search[key]``, or the default cube when the file gives none."""
    if key not in search:
        return Box.cube(dim)
    return _box_from_dict(search[key], f"search.{key}")


def instance_from_dict(data: dict) -> ProblemInstance:
    if not isinstance(data, dict):
        raise InstanceParseError("instance file must hold a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise InstanceParseError(
            f"schema_version: expected {SCHEMA_VERSION!r}, got {data.get('schema_version')!r}"
        )
    for fieldname in ("n", "m", "L", "f", "g", "phi", "psi"):
        if fieldname not in data:
            raise InstanceParseError(f"missing field {fieldname!r}")
    n, m = data["n"], data["m"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (n, m)):
        raise InstanceParseError("n, m must be positive integers")
    L_matrix = _as_matrix(data["L"], "L")
    if L_matrix.shape != (m, n):
        raise InstanceParseError(f"L: shape {L_matrix.shape} != ({m}, {n})")
    L = LinearMap(L_matrix)
    f = _objective_from_dict(data["f"], n, "f")
    g = _objective_from_dict(data["g"], m, "g")
    phi = _family_from_dict(data["phi"], n, "phi")
    psi = _family_from_dict(data["psi"], m, "psi")

    search = data.get("search", {})
    if not isinstance(search, dict):
        raise InstanceParseError("search: expected an object")
    points = _as_int(
        search.get("points_per_axis", default_points_per_axis(n)),
        "search.points_per_axis",
    )
    rounds = _as_int(search.get("refine_rounds", 2), "search.refine_rounds")
    y_points = _as_int(
        search.get("y_points_per_axis", _default_y_points(n, m, points)),
        "search.y_points_per_axis",
    )
    y_rounds = _as_int(search.get("y_refine_rounds", rounds), "search.y_refine_rounds")
    x_box = _search_box(search, "x_box", n)
    y_box = _search_box(search, "y_box", m)
    slope_box = _search_box(search, "psi_slope_box", m)
    if "psi_curv_grid" not in search or "psi_slope_points_per_axis" not in search:
        default_grid = FamilySearchGrid.default(psi)
    if "psi_curv_grid" in search:
        curv = search["psi_curv_grid"]
        if isinstance(curv, list):
            curvatures = tuple(_as_float(a, "search.psi_curv_grid") for a in curv)
        else:
            points_curv = _as_int(curv, "search.psi_curv_grid")
            if points_curv < 1:
                raise InstanceParseError(
                    f"search.psi_curv_grid: expected a count >= 1, got {points_curv}")
            curvatures = tuple(float(a) for a in psi.curvature.grid(points=points_curv))
    else:
        curvatures = default_grid.curvatures
    slope_points = _as_int(
        search["psi_slope_points_per_axis"] if "psi_slope_points_per_axis" in search
        else default_grid.slope_points_per_axis,
        "search.psi_slope_points_per_axis",
    )
    try:
        psi_search = FamilySearchGrid(psi, slope_box, slope_points, curvatures)
        x_search = GridSpec(x_box, points, rounds)
        y_search = GridSpec(y_box, y_points, y_rounds)
        return ProblemInstance(
            f, g, L, phi, psi_search, x_search, y_search,
            name=str(data.get("name", "")),
        )
    except ValueError as exc:
        raise InstanceParseError(str(exc)) from exc


def read_json(path):
    """The JSON value in a file.  A missing or unreadable file, or text that
    is not JSON, raises ``InstanceParseError``, naming the line of a syntax
    error."""
    path = Path(path)
    if not path.exists():
        raise InstanceParseError(f"no such file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # a directory, bad UTF-8, a 5000-digit integer
        raise InstanceParseError(f"{path}: {exc}") from exc


def load_instance(path) -> ProblemInstance:
    return instance_from_dict(read_json(path))


def save_instance(instance: ProblemInstance, path) -> None:
    Path(path).write_text(dumps(instance_to_dict(instance)) + "\n")


# ---------------------------------------------------------------------------
# Certificates


def certificate_to_dict(cert: GapCertificate) -> dict:
    """Descriptor dict for a certificate; like ``instance_to_dict`` it holds
    no -0.0, so a certificate file round-trips byte for byte."""
    out = {
        "kind": cert.kind,
        "eps": cert.eps + 0.0,
        "x": _floats(cert.x),
        "psi": _member_to_dict(cert.psi, fold=True),
    }
    if cert.phi is not None:
        out["phi"] = _member_to_dict(cert.phi, fold=True)
    return out


def certificate_from_dict(data: dict, n: int, m: int) -> GapCertificate:
    if not isinstance(data, dict):
        raise InstanceParseError("certificate must be a JSON object")
    kind = data.get("kind")
    if kind not in ("thm42", "thm43"):
        raise InstanceParseError(f"certificate kind: expected thm42|thm43, got {kind!r}")
    for fieldname in ("eps", "x", "psi"):
        if fieldname not in data:
            raise InstanceParseError(f"certificate: missing field {fieldname!r}")
    eps = _as_float(data["eps"], "eps")
    x = _as_vector(data["x"], "x")
    if x.shape != (n,):
        raise InstanceParseError(f"certificate x: length {x.shape[0]} != {n}")
    psi = _member_from_dict(data["psi"], m, "psi")
    phi = _member_from_dict(data["phi"], n, "phi") if "phi" in data else None
    try:
        return GapCertificate(kind, eps, x, psi, phi)
    except ValueError as exc:
        raise InstanceParseError(str(exc)) from exc


def load_certificate_file(path, n: int, m: int) -> dict:
    """Parse a certificate file: either a single certificate object or a
    ladder ``{"kind": "thm44", "x": [...], "ladder": [...], "certs": [...]}``.

    Returns {"kind": ..., "certs": [...], "x": ..., "ladder": ...}.  A
    ladder must hold at least one eps, each finite and nonnegative, and every
    given certificate must sit at x (within ``VALUE_TOL``); no certs means
    the tangent certificate is tried at each eps.  Given certs are checked
    each at its own eps, so a file may not also name a ladder."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise InstanceParseError("certificate file must hold a JSON object")
    kind = data.get("kind")
    if kind in ("thm42", "thm43"):
        return {"kind": kind, "certs": [certificate_from_dict(data, n, m)]}
    if kind == "thm44":
        if "x" not in data:
            raise InstanceParseError("thm44 certificate needs x")
        x = _as_vector(data["x"], "x")
        if x.shape != (n,):
            raise InstanceParseError(f"certificate x: length {x.shape[0]} != {n}")
        ladder, certs = data.get("ladder", [1.0, 1e-2, 1e-4, 1e-6]), data.get("certs", [])
        if not isinstance(ladder, list) or not isinstance(certs, list):
            raise InstanceParseError("thm44 ladder and certs must be JSON lists")
        if "ladder" in data and certs:
            raise InstanceParseError("thm44: give a ladder or certs, not both")
        ladder = tuple(_as_float(e, "ladder") for e in ladder)
        if not ladder:
            raise InstanceParseError("thm44 ladder must hold at least one eps")
        for eps in ladder:
            if not 0 <= eps < math.inf:
                raise InstanceParseError(f"ladder: eps {eps!r} is not finite and nonnegative")
        certs = [certificate_from_dict(c, n, m) for c in certs]
        for cert in certs:
            if np.max(np.abs(cert.x - x)) > VALUE_TOL:
                raise InstanceParseError("ladder certificates must share the point x")
        return {"kind": kind, "x": x, "ladder": ladder, "certs": certs}
    raise InstanceParseError(f"certificate kind: expected thm42|thm43|thm44, got {kind!r}")
