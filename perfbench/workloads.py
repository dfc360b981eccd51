"""The benchmark's workloads: seeded inputs, one request, and its checks.

Each workload is driven as one client in a closed loop.  ``request(k, span)``
computes the k-th request through abconv's public API and returns its
outputs; ``check(k, out)`` lists what is wrong with them (empty when
correct).  ``corrupt(out)`` damages an output on purpose so that the smoke
mode can show a bad output being counted as failed.

Inputs come only from the seed given to the constructor; abconv only ever
sees the generated instances and members.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spans import ROUNDTRIP

REFERENCE = Path(__file__).resolve().parent / "reference"
TOL = 1e-6

CATALOG = ("ex4.7", "ex4.7-reversed", "ex4.8", "ex5.6", "ex6.10", "ex6.11")


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class Catalog:
    """The six bundled instances, round-robin.

    One request is what a user runs on one worked example: ``abconv gap
    --json`` (``run_report`` + ``report_json``), ``reproduce_checks``, the
    value-function lsc probe, and one intersection-property call on a seeded
    member/level triple in the instance's input dimension."""

    name = "catalog"
    cycle = len(CATALOG)
    triples_per_name = 10

    def __init__(self, abc, seed: int) -> None:
        self.abc = abc
        self.instances = [abc.catalog_instance(name) for name in CATALOG]
        facts = json.loads((REFERENCE / "catalog_facts.json").read_text())
        self.facts = [facts[name] for name in CATALOG]
        self.gap_json = [(REFERENCE / "gap" / f"{name}.json").read_text()
                         for name in CATALOG]
        rng = np.random.default_rng(seed)
        self.triples = [
            _draw_triple(abc, rng, self.instances[j % self.cycle].L.in_dim, j)
            for j in range(self.cycle * self.triples_per_name)
        ]

    def request(self, k: int, span) -> dict:
        abc = self.abc
        j = k % self.cycle
        inst = self.instances[j]
        report = abc.run_report(inst)
        text = abc.report_json(report)
        rows = abc.reproduce_checks(CATALOG[j])
        lsc = abc.lsc_probe_at_zero(abc.LagrangianContext(inst))
        t = k % len(self.triples)
        p1, p2, alpha, _ = self.triples[t]
        witness = abc.intersection_property(p1, p2, alpha)
        return {
            "text": text,
            "weak_ok": report["weak_duality_ok"],
            "checks": [row.passed for row in rows],
            "lsc": lsc,
            "triple": t,
            "t0": None if witness is None else float(witness.t0),
        }

    def check(self, k: int, out: dict) -> list[str]:
        j = k % self.cycle
        name, facts = CATALOG[j], self.facts[j]
        problems = []
        if out["text"] != self.gap_json[j]:
            problems.append(f"{name}: gap --json bytes differ from the reference")
        if not out["weak_ok"]:
            problems.append(f"{name}: weak duality flagged as violated")
        if len(out["checks"]) != facts["checks"] or not all(out["checks"]):
            problems.append(f"{name}: reproduce_checks passed "
                            f"{sum(out['checks'])}/{len(out['checks'])}, "
                            f"expected {facts['checks']}/{facts['checks']}")
        if out["lsc"] != facts["lsc"]:
            problems.append(f"{name}: lsc probe gave {out['lsc']}, "
                            f"expected {facts['lsc']}")
        p1, p2, alpha, peak = self.triples[out["triple"]]
        if out["t0"] is None:
            if peak >= alpha + TOL:
                problems.append(f"{name}: no intersection witness, but the "
                                f"combination clears alpha={alpha!r} at {peak!r}")
        elif _iso_combo_min(p1, p2, out["t0"]) < alpha - TOL:
            problems.append(f"{name}: witness t0={out['t0']!r} does not clear "
                            f"alpha={alpha!r}")
        return problems

    @staticmethod
    def corrupt(out: dict) -> dict:
        return dict(out, text=out["text"][:-2] + "\n")


def _draw_member(abc, rng, n: int):
    # The acceptance suite's criterion 09 distribution, one slope per axis.
    if rng.uniform() < 0.25:
        a = 0.0
        u = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.8, 2.0, size=n)
    else:
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
        u = rng.uniform(-2, 2, size=n)
    return abc.GeneralizedQuadratic.iso(n, a, u, float(rng.uniform(-1, 1)))


def _iso_parts(p1, p2, t):
    a = t * p1.A[0, 0] + (1 - t) * p2.A[0, 0]
    u = np.multiply.outer(t, p1.u) + np.multiply.outer(1 - t, p2.u)
    c = t * p1.c + (1 - t) * p2.c
    return a, u, c


def _iso_combo_min(p1, p2, t) -> float:
    """Exact ``min_z [t*p1 + (1-t)*p2](z)`` for isotropic members, written
    independently of abconv's eigendecomposition path."""
    a, u, c = _iso_parts(p1, p2, float(t))
    scale = max(1.0, float(np.max(np.abs(p1.u))), float(np.max(np.abs(p2.u))))
    if a > 1e-9:
        return float(c - u @ u / (4 * a))
    if abs(a) <= 1e-9 and float(np.max(np.abs(u))) <= 1e-9 * scale:
        return float(c)
    return -math.inf


def _draw_triple(abc, rng, n: int, j: int):
    p1, p2 = _draw_member(abc, rng, n), _draw_member(abc, rng, n)
    t = np.linspace(0.0, 1.0, 2001)
    a, u, c = _iso_parts(p1, p2, t)
    sq = np.sum(u * u, axis=1)
    safe = np.where(a > 0, a, 1.0)
    m = np.where(a > 0, c - sq / (4 * safe),
                 np.where((a == 0) & (sq == 0), c, -np.inf))
    peak = float(np.max(m))
    offset = float(rng.uniform(0.05, 1.0))
    if peak == -math.inf:
        alpha = -20.0
    else:
        alpha = peak - offset if j % 2 == 0 else peak + offset
    return p1, p2, alpha, peak


class Fuzz:
    """Seeded random exact instances at the fuzz script's grid sizes.

    One request is the fuzz gate's work on one instance: primal, conjugate
    dual, Lagrange dual and convexified primal, the four invariants, and the
    serialization round trip.  Dimensions cycle through 1x1 ... 3x3."""

    name = "fuzz"
    dims = tuple((n, m) for n in (1, 2, 3) for m in (1, 2, 3))
    cycle = len(dims)
    x_points = {1: 201, 2: 41, 3: 11}
    slope_points = {1: 201, 2: 21, 3: 9}
    pool_size = 12 * len(dims)

    def __init__(self, abc, seed: int) -> None:
        self.abc = abc
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31, size=self.pool_size)
        self.pool = [self._sized(*self.dims[j % self.cycle], int(s))
                     for j, s in enumerate(seeds)]

    def _sized(self, n: int, m: int, seed: int):
        abc = self.abc
        raw = abc.random_instance(abc.RandomSpec(n=n, m=m), seed)
        return abc.ProblemInstance.build(
            f=raw.f, g=raw.g, L=raw.L, phi=raw.phi, psi=raw.psi,
            x_search=abc.GridSpec(abc.Box.cube(n, -10.0, 10.0), self.x_points[n], 2),
            psi_search=abc.FamilySearchGrid.default(
                raw.psi, slope_points=self.slope_points[m]),
            name=raw.name,
        )

    def request(self, k: int, span) -> dict:
        abc = self.abc
        inst = self.pool[k % self.pool_size]
        p = abc.primal_value(inst)
        d = abc.dcp_value(inst)
        ctx = abc.LagrangianContext(inst)
        ld = abc.ld_value(ctx)
        lp = abc.lp_value(ctx)
        with span(ROUNDTRIP):
            text = abc.dumps(abc.instance_to_dict(inst))
            again = abc.dumps(abc.instance_to_dict(
                abc.instance_from_dict(json.loads(text))))
        return {"name": inst.name, "primal": p.value, "dcp": d.value,
                "ld": ld.value, "lp": lp.value, "text": text, "again": again}

    def check(self, k: int, out: dict) -> list[str]:
        name = out["name"]
        problems = []
        if out["dcp"] > out["primal"] + TOL:
            problems.append(f"{name}: dual {out['dcp']!r} exceeds primal {out['primal']!r}")
        if out["ld"] > out["lp"] + TOL:
            problems.append(f"{name}: lagrange dual {out['ld']!r} exceeds "
                            f"convexified {out['lp']!r}")
        if not _same_float(out["ld"], out["dcp"]):
            problems.append(f"{name}: lagrange dual {out['ld']!r} != "
                            f"conjugate dual {out['dcp']!r}")
        if out["again"] != out["text"]:
            problems.append(f"{name}: serialization round trip is not stable")
        return problems

    @staticmethod
    def corrupt(out: dict) -> dict:
        return dict(out, again=out["again"] + " ")


class Gridbox:
    """Seeded random instances whose f and g carry finite domain boxes, so
    every conjugate goes through the grid engine.

    Two kinds in six evaluate g through an opaque callable (the
    ``blackbox-poly`` payload), i.e. ``Objective.values``' per-point path.
    One request is ``run_report`` (no certificates) plus a fresh
    ``dcp_value``; the checks are dual <= primal, ld == dcp bit for bit,
    ld <= lp, and identical report bytes whenever a pool entry repeats."""

    name = "gridbox"
    # (n, m, g evaluated through a callable)
    kinds = ((1, 1, False), (2, 1, False), (1, 1, True),
             (1, 2, False), (2, 2, False), (2, 1, True))
    cycle = len(kinds)
    pool_size = 2 * len(kinds)
    x_points = {1: 51, 2: 21}
    y_points = {1: 41, 2: 11}
    # Slope points per axis by (m, blackbox), chosen so that every kind
    # takes about the same time; a callable g costs ~2x per member.
    slope_points = {(1, False): 31, (1, True): 15, (2, False): 5}
    curvature_points = 11

    def __init__(self, abc, seed: int) -> None:
        self.abc = abc
        rng = np.random.default_rng(seed)
        self.pool = [self._boxed(*self.kinds[j % self.cycle], rng, j)
                     for j in range(self.pool_size)]
        self.seen: dict[int, str] = {}

    def _boxed(self, n: int, m: int, blackbox: bool, rng, j: int):
        abc = self.abc
        raw = abc.random_instance(abc.RandomSpec(n=n, m=m),
                                  int(rng.integers(0, 2**31)))
        # Boxes contain the origin, so x = 0 is always feasible.
        f_box = abc.Box(-rng.uniform(1.0, 6.0, n), rng.uniform(1.0, 6.0, n))
        g_box = abc.Box(-rng.uniform(1.0, 6.0, m), rng.uniform(1.0, 6.0, m))
        f = abc.Objective.quadratic(raw.f.quad, domain_box=f_box)
        if blackbox:
            g = abc.Objective.from_callable(
                m, lambda y, q=raw.g.quad: float(q(np.asarray(y, dtype=float))),
                domain_box=g_box)
        else:
            g = abc.Objective.quadratic(raw.g.quad, domain_box=g_box)
        return abc.ProblemInstance.build(
            f=f, g=g, L=raw.L, phi=raw.phi, psi=raw.psi,
            psi_search=abc.FamilySearchGrid.default(
                raw.psi, slope_points=self.slope_points[m, blackbox],
                curvature_points=self.curvature_points),
            x_search=abc.GridSpec(abc.Box.cube(n), self.x_points[n], 2),
            y_search=abc.GridSpec(abc.Box.cube(m), self.y_points[m], 2),
            name=f"gridbox-{j}",
        )

    def request(self, k: int, span) -> dict:
        abc = self.abc
        inst = self.pool[k % self.pool_size]
        report = abc.run_report(inst, certificates=False)
        return {"name": inst.name, "report": report,
                "text": abc.report_json(report),
                "dcp": abc.dcp_value(inst).value}

    def check(self, k: int, out: dict) -> list[str]:
        name, report = out["name"], out["report"]
        problems = []
        if report["dcp"] > report["primal"] + TOL:
            problems.append(f"{name}: dual {report['dcp']!r} exceeds primal "
                            f"{report['primal']!r}")
        if not _same_float(report["ld"], out["dcp"]):
            problems.append(f"{name}: ld {report['ld']!r} != dcp {out['dcp']!r}")
        if report["ld"] > report["lp"] + TOL:
            problems.append(f"{name}: ld {report['ld']!r} exceeds lp {report['lp']!r}")
        first = self.seen.setdefault(k % self.pool_size, out["text"])
        if first != out["text"]:
            problems.append(f"{name}: repeated input gave different report bytes")
        return problems

    @staticmethod
    def corrupt(out: dict) -> dict:
        return dict(out, dcp=math.nextafter(out["dcp"], math.inf))


WORKLOADS = {w.name: w for w in (Catalog, Fuzz, Gridbox)}
