"""Acceptance gate: ten go/no-go checks, one labelled line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Each test
prints exactly one ``[criterion NN] PASS/FAIL`` line before asserting, so the
gate's outcome is readable straight off the log.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from abconv import (
    Box,
    EpiPoint,
    FamilySearchGrid,
    GapCertificate,
    GeneralizedQuadratic,
    GridSpec,
    INF,
    LagrangianContext,
    Objective,
    ProblemInstance,
    RandomSpec,
    catalog_instance,
    combine,
    composite_condition_check,
    conjugate_closed_form,
    conjugate_grid,
    dcp_value,
    epi_contains,
    epi_decompose,
    eps_subdiff_contains,
    family_conjugate_table,
    biconjugate_many,
    intersection_property,
    lagrangian_value,
    ld_value,
    lp_value,
    primal_value,
    random_instance,
    support_point_zero_gap_check,
    verify_gap_certificate,
)
from abconv.quadratics import Family, CurvatureSpec


def iso1(a, u, c=0.0):
    return GeneralizedQuadratic.iso(1, a, [u], c)


def emit(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


class TestAcceptance:
    def test_criterion_01_first_worked_instance(self):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "abconv", "reproduce", "ex4.7"],
            capture_output=True, text=True,
        )
        inst = catalog_instance("ex4.7")
        p = primal_value(inst)
        d = dcp_value(inst)
        gap = abs(p.value - d.value)
        elapsed = time.perf_counter() - t0
        ok = (
            proc.returncode == 0
            and "5/5 checks passed" in proc.stdout
            and abs(p.value - 0.8) <= 1e-6
            and abs(d.value - 0.8) <= 1e-6
            and gap <= 1e-6
            and p.engine == "closed"
            and d.engine == "closed"
            and elapsed < 1.0
        )
        emit(1, ok, f"primal {p.value:.6g}, dual {d.value:.6g}, gap {gap:.1e}, "
                    f"closed-form engines, cli rc {proc.returncode} ({elapsed:.2f}s)")
        assert ok

    def test_criterion_02_swapped_classes(self):
        t0 = time.perf_counter()
        inst = catalog_instance("ex4.7-reversed")
        p = primal_value(inst)
        d = dcp_value(inst)
        attaining = d.attaining
        curved = attaining is not None and float(attaining.A[0, 0]) < -1e-9
        affine_phi = iso1(0.0, 1.6)
        difference_ok = composite_condition_check(
            inst, affine_phi, attaining, variant="difference"
        )
        elapsed = time.perf_counter() - t0
        ok = (
            abs(p.value - 0.8) <= 1e-6
            and abs(d.value - 0.8) <= 1e-6
            and curved
            and not difference_ok
            and elapsed < 1.0
        )
        emit(2, ok, f"primal {p.value:.6g}, dual {d.value:.6g}, attaining member "
                    f"curved, difference-membership check reports False "
                    f"({elapsed:.2f}s)")
        assert ok

    def test_criterion_03_conjugate_branch_sweep(self):
        t0 = time.perf_counter()
        inst = catalog_instance("ex4.8")
        worst_rel = 0.0
        branch_errors = []
        for c in (0.2, 0.5, 0.8, 0.9, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            for d in (-2.0, 0.0, 2.0, 4.0, 6.0):
                val = conjugate_closed_form(inst.g, iso1(-c, d)).value
                if c < 1.0 or (c == 1.0 and d != 2.0):
                    expected = INF
                elif c == 1.0:
                    expected = 1.0
                else:
                    expected = (d - 2.0) ** 2 / (4.0 * (c - 1.0)) + 1.0
                if expected == INF:
                    if val != INF:
                        branch_errors.append((c, d, val, expected))
                    continue
                if abs(val - expected) > 1e-9 * max(1.0, abs(expected)):
                    branch_errors.append((c, d, val, expected))
                oracle = oracles.conjugate_brute(
                    [[-1.0]], [2.0], -1.0, [[-c]], [d], 0.0, -20.0, 20.0
                )
                worst_rel = max(worst_rel, abs(val - oracle) / max(1.0, abs(val)))
        elapsed = time.perf_counter() - t0
        ok = not branch_errors and worst_rel <= 1e-3 and elapsed < 5.0
        emit(3, ok, f"50-point sweep matches branch formula, worst oracle "
                    f"deviation {worst_rel:.1e} rel ({elapsed:.2f}s)")
        assert ok, branch_errors

    def test_criterion_04_eps_gap_certificate(self):
        t0 = time.perf_counter()
        inst = catalog_instance("ex4.8")
        cert = GapCertificate(
            kind="thm42", eps=1e-3, x=np.array([-2.0, 3.0]), psi=iso1(-1.0, 2.0)
        )
        check = verify_gap_certificate(inst, cert)
        elapsed = time.perf_counter() - t0
        ok = check.holds and check.conditions["conjugate_bound"] and elapsed < 1.0
        emit(4, ok, f"certificate at eps=1e-3 holds: perturbation value "
                    f"{check.details['conjugate_at_zero']:.6g} <= bound "
                    f"{check.details['bound']:.6g} ({elapsed:.2f}s)")
        assert ok

    def test_criterion_05_epigraph_decomposition(self):
        t0 = time.perf_counter()
        inst = catalog_instance("ex5.6")
        point = EpiPoint(GeneralizedQuadratic.iso(2, 0.0, [1.0, 1.0]), 1.0)
        split = epi_decompose(inst, point)
        elapsed = time.perf_counter() - t0
        ok = (
            split is not None
            and split.psi.is_zero(1e-12)
            and abs(split.c_phi - 1.0) <= 1e-9
            and abs(split.c_psi) <= 1e-9
            and epi_contains(inst, "f", EpiPoint(split.phi1, split.c_phi))
            and epi_contains(inst, "g", EpiPoint(split.psi, split.c_psi))
            and elapsed < 1.0
        )
        detail = "no split found"
        if split is not None:
            detail = (f"split psi=0 with input level {split.c_phi + 0.0:.6g}, "
                      f"output level {split.c_psi + 0.0:.6g}, both epigraph "
                      f"memberships verified ({elapsed:.2f}s)")
        emit(5, ok, detail)
        assert ok

    def test_criterion_06_support_point_certification(self):
        t0 = time.perf_counter()
        inst = catalog_instance("ex6.11")
        ctx = LagrangianContext(inst)
        p = primal_value(inst)
        ld = ld_value(ctx)
        lp = lp_value(ctx)
        values_ok = (
            abs(p.value + 9.25) <= 1e-6
            and abs(ld.value + 9.25) <= 1e-6
            and abs(lp.value + 9.25) <= 1e-6
        )
        psi = iso1(0.0, 2.0, 1.0)  # the affine member 2y + 1
        candidates = np.concatenate(
            [np.linspace(-10.0, 10.0, 201), [-0.5, 0.5, 1.5]]
        )
        certified = False
        for alpha in (-9.25, -9.5):
            for x0 in candidates:
                if support_point_zero_gap_check(ctx, psi, [x0], alpha).holds:
                    certified = True
                    break
            if certified:
                break
        elapsed = time.perf_counter() - t0
        ok = values_ok and certified and elapsed < 1.0
        if certified:
            scan = "AND a support point certifies the zero gap for the member 2y+1"
        else:
            scan = (f"BUT no support point certifies the zero gap for the member "
                    f"2y+1: 0/{len(candidates)} candidates hold (the sandwich "
                    f"needs x0 >= (3-sqrt 12)/2 ~ -0.23, the point condition "
                    f"needs x0 <= -0.5)")
        emit(6, ok, f"primal/lagrange-dual/convexified all {p.value:.6g} "
                    f"({'ok' if values_ok else 'WRONG'}) {scan} "
                    f"({elapsed:.2f}s)")
        assert ok, (
            "support-point certification is unattainable here: the sandwich "
            "f(x0) <= -9.25 <= psi(x0) needs x0^2 - 3x0 - 10 <= -9.25, i.e. "
            "x0 >= (3 - sqrt 12)/2 ~ -0.23, while the point condition "
            "(g(x0) = 2x0 + 1 <= 0, or x0 in the support set) needs "
            "x0 <= -0.5; the admissible sets are disjoint"
        )

    def test_criterion_07_random_weak_duality(self):
        t0 = time.perf_counter()
        x_points = {1: 201, 2: 41, 3: 11}
        s_points = {1: 201, 2: 21, 3: 9}
        violations = []
        for seed in range(200):
            n = seed % 3 + 1
            m = (seed * 7 // 3) % 3 + 1
            raw = random_instance(RandomSpec(n=n, m=m), seed)
            inst = ProblemInstance.build(
                f=raw.f, g=raw.g, L=raw.L, phi=raw.phi, psi=raw.psi,
                x_search=GridSpec(Box.cube(n, -10.0, 10.0), x_points[n], 2),
                psi_search=FamilySearchGrid.default(raw.psi, slope_points=s_points[m]),
                name=raw.name,
            )
            p = primal_value(inst)
            d = dcp_value(inst)
            ctx = LagrangianContext(inst)
            ld = ld_value(ctx)
            lp = lp_value(ctx)
            if d.value > p.value + 1e-6:
                violations.append(("dcp>primal", seed, d.value, p.value))
            if ld.value > lp.value + 1e-6:
                violations.append(("ld>lp", seed, ld.value, lp.value))
        elapsed = time.perf_counter() - t0
        ok = not violations and elapsed < 60.0
        emit(7, ok, f"200 seeded instances (dims up to 3x3): dual <= primal and "
                    f"lagrange-dual <= convexified-primal everywhere, "
                    f"{len(violations)} violations ({elapsed:.1f}s)")
        assert ok, violations

    def test_criterion_08_closed_vs_grid_conjugates(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(88)
        worst_rel = 0.0
        failures = []
        for k in range(200):
            n = 1 + (k % 2)
            eigs = rng.uniform(0.3, 2.0, n)
            basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
            f = Objective.quadratic(GeneralizedQuadratic(
                n, basis @ np.diag(eigs) @ basis.T,
                rng.uniform(-2, 2, n), rng.uniform(-1, 1),
            ))
            phi = GeneralizedQuadratic.iso(
                n, rng.uniform(-2.0, 0.0), rng.uniform(-2, 2, n), rng.uniform(-1, 1)
            )
            closed = conjugate_closed_form(f, phi)
            interior = (closed.maximizer is not None
                        and float(np.max(np.abs(closed.maximizer))) < 7.0)
            grid = conjugate_grid(
                f, phi, GridSpec(Box.cube(n, -10.0, 10.0), {1: 201, 2: 61}[n], 4),
            ).value
            rel = abs(closed.value - grid) / max(1.0, abs(closed.value))
            worst_rel = max(worst_rel, rel)
            if not interior or rel > 1e-3 or grid > closed.value + 1e-9:
                failures.append((k, closed.value, grid))
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed < 30.0
        emit(8, ok, f"200 random finite conjugates with interior maximizers: "
                    f"worst closed-vs-grid deviation {worst_rel:.1e} rel, grid "
                    f"never exceeds closed ({elapsed:.1f}s)")
        assert ok, failures

    def test_criterion_09_intersection_property_agreement(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(93)

        def draw_member():
            if rng.uniform() < 0.25:
                a = 0.0
                u = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 2.0)
            else:
                a = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)
                u = rng.uniform(-2, 2)
            return iso1(a, u, rng.uniform(-1, 1))

        def combo_peak(p1, p2, t_points=2001):
            # best-over-t of (inf over the line) for t*p1 + (1-t)*p2, exact
            # vertex formula per t; only used to place alpha at a margin
            t = np.linspace(0.0, 1.0, t_points)
            a = t * float(p1.A[0, 0]) + (1 - t) * float(p2.A[0, 0])
            u = t * float(p1.u[0]) + (1 - t) * float(p2.u[0])
            c = t * p1.c + (1 - t) * p2.c
            safe = np.where(a > 0, a, 1.0)
            m = np.where(a > 0, c - u * u / (4 * safe),
                         np.where((a == 0) & (u == 0), c, -np.inf))
            return float(np.max(m))

        disagreements = []
        for k in range(200):
            p1, p2 = draw_member(), draw_member()
            peak = combo_peak(p1, p2)
            offset = rng.uniform(0.05, 1.0)
            if peak == -np.inf:
                alpha = -20.0
            else:
                alpha = peak - offset if k % 2 == 0 else peak + offset
            engine = intersection_property(p1, p2, alpha) is not None
            brute = oracles.intersection_brute(
                ([[p1.A[0, 0]]], [p1.u[0]], p1.c),
                ([[p2.A[0, 0]]], [p2.u[0]], p2.c),
                alpha, [-30.0], [30.0], 2001, 501,
            )
            if engine != brute:
                disagreements.append((k, alpha, engine, brute))
        elapsed = time.perf_counter() - t0
        ok = not disagreements and elapsed < 30.0
        emit(9, ok, f"200 random member/level triples: witness search and "
                    f"definition-level brute force agree everywhere "
                    f"({elapsed:.1f}s)")
        assert ok, disagreements

    def test_criterion_10_bulk_invariants(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        fy_bad = 0
        for _ in range(10_000):
            f = Objective.quadratic(
                iso1(rng.uniform(0.3, 2.0), rng.uniform(-3, 3), rng.uniform(-2, 2))
            )
            phi = iso1(rng.uniform(-2.0, 0.0), rng.uniform(-3, 3),
                       rng.uniform(-2, 2))
            x = rng.uniform(-5, 5)
            fstar = conjugate_closed_form(f, phi).value
            if f.value([x]) + fstar < float(phi(np.array([x]))) - 1e-9:
                fy_bad += 1

        f_mixed = Objective.quadratic(iso1(-0.5, 1.0, 0.5))
        search = FamilySearchGrid.default(Family(1, CurvatureSpec.nonpos()))
        table = family_conjugate_table(f_mixed, search)
        X = np.linspace(-8.0, 8.0, 1000).reshape(-1, 1)
        minorize_bad = int(np.sum(
            biconjugate_many(f_mixed, X, search, table) > f_mixed.values(X) + 1e-9
        ))

        rng = np.random.default_rng(1002)
        nest_bad = 0
        for _ in range(1000):
            f = Objective.quadratic(
                iso1(rng.uniform(0.3, 2.0), rng.uniform(-3, 3), rng.uniform(-2, 2))
            )
            phi = iso1(rng.uniform(-2.0, 0.0), rng.uniform(-3, 3),
                       rng.uniform(-2, 2))
            x = [rng.uniform(-3, 3)]
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            if (eps_subdiff_contains(f, phi, x, lo)
                    and not eps_subdiff_contains(f, phi, x, hi)):
                nest_bad += 1

        ctx = LagrangianContext(catalog_instance("ex4.7"))
        rng = np.random.default_rng(1003)
        concave_bad = 0
        for _ in range(1000):
            psi1 = iso1(0.0, rng.uniform(-8, 8))
            psi2 = iso1(0.0, rng.uniform(-8, 8))
            x = [rng.uniform(-3, 3)]
            mid = combine(0.5, psi1, 0.5, psi2)
            mean = 0.5 * (lagrangian_value(ctx, x, psi1)
                          + lagrangian_value(ctx, x, psi2))
            if lagrangian_value(ctx, x, mid) < mean - 1e-9:
                concave_bad += 1

        elapsed = time.perf_counter() - t0
        ok = (fy_bad == 0 and minorize_bad == 0 and nest_bad == 0
              and concave_bad == 0 and elapsed < 60.0)
        emit(10, ok, f"conjugate inequality 10000/10000, biconjugate "
                     f"minorization 1000/1000, eps-subdifferential nesting "
                     f"1000/1000, dual-member concavity 1000/1000 "
                     f"({elapsed:.1f}s)")
        assert ok, (fy_bad, minorize_bad, nest_bad, concave_bad)
