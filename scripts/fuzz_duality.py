#!/usr/bin/env python3
"""Fuzz the duality invariants on seeded random instances and gate on them.

For every generated instance the script checks, with the inequalities
compared at ``abconv.config.VALUE_TOL``:
  * conjugate dual <= primal,
  * lagrange dual  <= convexified primal,
  * lagrange dual  == conjugate dual (they share parameter tables),
  * the instance survives a serialization round trip bit-for-bit, and
    the instance read back from its file is equal to it,
  * the convexified primal, which prunes mesh points, has the value and the
    first minimizer of f + g**(L.) with g** evaluated at every mesh point,
  * the grid engine's table of g, searched over the default grid with no
    domain box, is at most the exact closed-form table (relative slack
    CROSS_TOL), and where the exact maximizer lies inside the grid box it is
    within the first mesh's resolution of it: ||D|| * m * (h/2)^2 for the
    member's difference matrix D and mesh spacing h.

Prints one PASS/FAIL line per batch and exits 0 only if no check failed.
"""

import argparse
import json
import sys
import time

import numpy as np

from abconv import (
    Box,
    FamilySearchGrid,
    GeneralizedQuadratic,
    GridSpec,
    LagrangianContext,
    Objective,
    ProblemInstance,
    RandomSpec,
    biconjugate_many,
    conjugate_closed_form,
    dcp_value,
    family_conjugate_table,
    dumps,
    instance_from_dict,
    instance_to_dict,
    ld_value,
    lp_value,
    primal_value,
    random_instance,
)
from abconv.config import VALUE_TOL

X_POINTS = {1: 201, 2: 41, 3: 11}
SLOPE_POINTS = {1: 201, 2: 21, 3: 9}
# The grid-vs-closed check runs the grid engine on a smaller member grid.
CROSS_SLOPE_POINTS = {1: 9, 2: 3, 3: 2}
CROSS_CURVATURE_POINTS = 3
CROSS_TOL = 1e-9


def sized_instance(spec: RandomSpec, seed: int) -> ProblemInstance:
    """A seeded instance whose search grids shrink with the dimensions so a
    large fuzz run stays fast; the invariants hold for any fixed grids."""
    raw = random_instance(spec, seed)
    return ProblemInstance.build(
        f=raw.f, g=raw.g, L=raw.L, phi=raw.phi, psi=raw.psi,
        x_search=GridSpec(Box.cube(spec.n, -10.0, 10.0), X_POINTS[spec.n], 2),
        psi_search=FamilySearchGrid.default(
            raw.psi, slope_points=SLOPE_POINTS[spec.m]
        ),
        name=raw.name,
    )


def whole_space_table(inst: ProblemInstance):
    """The grid engine's table of g seen through a whole-space box, on the
    cross-check's member grid and the default mesh: (search, grid, table)."""
    g, m = inst.g, inst.L.out_dim
    search = FamilySearchGrid.default(
        inst.psi, slope_points=CROSS_SLOPE_POINTS[m],
        curvature_points=CROSS_CURVATURE_POINTS)
    grid = GridSpec.default(m)
    whole = Box(np.full(m, -np.inf), np.full(m, np.inf))
    gridded = family_conjugate_table(
        Objective.quadratic(g.quad, domain_box=whole), search, grid=grid)
    return search, grid, gridded


def grid_vs_closed(inst: ProblemInstance) -> list[str]:
    """Cross-check the two conjugate engines on g, which has no domain box:
    the grid engine sees it through a whole-space box."""
    g, m = inst.g, inst.L.out_dim
    search, grid, gridded = whole_space_table(inst)
    closed = family_conjugate_table(g, search)
    h = (grid.box.upper[0] - grid.box.lower[0]) / (grid.points_per_axis - 1)
    eigs = np.linalg.eigvalsh(g.quad.A)
    problems = []
    for i, beta in enumerate(search.curvatures):
        norm_d = float(np.max(np.abs(beta - eigs)))
        for j, slope in enumerate(search.slopes()):
            low, exact = float(gridded[i, j]), float(closed[i, j])
            slack = CROSS_TOL * (1.0 + abs(exact))
            where = f"member beta={beta:g}, slope={slope.tolist()}"
            if low > exact + slack:
                problems.append(f"grid conjugate {low!r} exceeds closed {exact!r} at {where}")
            res = conjugate_closed_form(g, GeneralizedQuadratic.iso(m, beta, slope))
            if res.maximizer is not None and grid.box.contains(res.maximizer):
                if low < res.value - norm_d * m * (h / 2) ** 2 - slack:
                    problems.append(f"grid conjugate {low!r} is not within the mesh "
                                    f"resolution of closed {res.value!r} at {where}")
    return problems


def check_instance(inst: ProblemInstance) -> list[str]:
    problems = []
    p = primal_value(inst)
    d = dcp_value(inst)
    ctx = LagrangianContext(inst)
    ld = ld_value(ctx)
    lp = lp_value(ctx)
    if d.value > p.value + VALUE_TOL:
        problems.append(f"dual {d.value:.9g} exceeds primal {p.value:.9g}")
    if ld.value > lp.value + VALUE_TOL:
        problems.append(
            f"lagrange dual {ld.value:.9g} exceeds convexified {lp.value:.9g}"
        )
    if not (ld.value == d.value or (np.isnan(ld.value) and np.isnan(d.value))):
        problems.append(f"lagrange dual {ld.value!r} != conjugate dual {d.value!r}")
    X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
    fv = inst.f.values(X)
    feasible = fv != np.inf
    total = np.full(len(X), np.inf)
    gdd = biconjugate_many(inst.g, inst.L.apply(X), inst.psi_search, ctx.gstar_table())
    total[feasible] = fv[feasible] + gdd[feasible]
    idx = int(np.argmin(total))
    if np.float64(lp.value).tobytes() != total[idx].tobytes() or (
        lp.minimizer is not None and not np.array_equal(lp.minimizer, X[idx])
    ):
        problems.append(f"convexified primal {lp.value!r} != dense {float(total[idx])!r}")
    text = dumps(instance_to_dict(inst))
    loaded = instance_from_dict(json.loads(text))
    if dumps(instance_to_dict(loaded)) != text:
        problems.append("serialization round trip is not stable")
    if loaded != inst:
        problems.append("the instance read back from its file is not equal to it")
    return problems + grid_vs_closed(inst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100,
                        help="instances per dimension pair (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (default 0)")
    parser.add_argument("--max-dim", type=int, default=3, choices=[1, 2, 3],
                        help="largest input/output dimension (default 3)")
    args = parser.parse_args(argv)

    dims = [(n, m) for n in range(1, args.max_dim + 1)
            for m in range(1, args.max_dim + 1)]
    total_failed = 0
    t0 = time.perf_counter()
    for n, m in dims:
        batch_failed = 0
        first = ""
        for k in range(args.count):
            seed = args.seed + k
            inst = sized_instance(RandomSpec(n=n, m=m), seed)
            problems = check_instance(inst)
            if problems:
                batch_failed += 1
                if not first:
                    first = f" [seed {seed}: {problems[0]}]"
        mark = "PASS" if batch_failed == 0 else "FAIL"
        print(f"{mark}  dims {n}x{m}: {args.count - batch_failed}/{args.count} "
              f"instances clean{first}")
        total_failed += batch_failed
    elapsed = time.perf_counter() - t0
    print(f"\n{'OK' if total_failed == 0 else 'FAILED'}: "
          f"{len(dims) * args.count - total_failed}/{len(dims) * args.count} "
          f"instances in {elapsed:.1f}s")
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
