"""The value contract of the package, as committed sha256 digests.

Each section hashes the bits of the values the package computes on a fixed
set of inputs, so a change that moves any of them names the section it
moved.  The gridbox sections use the instance pools of the benchmark's
``gridbox`` workload (``perfbench/workloads.py``) at three seeds: for each
instance the ``report_json`` bytes of ``run_report`` without certificates,
a fresh ``dcp_value``, and the grid engine's g* table in that
``dcp_value`` with its maximizers.
``grid-vs-closed`` hashes the whole-space-box table that
``scripts/fuzz_duality.py`` checks against the closed form, for the seed-0
instance of every dimension pair.  ``fuzz-11`` hashes the sweeps of the
benchmark's ``fuzz`` pool at seed 11: the g* and composite inf tables, the
dcp, ld and lp values and the lp minimizer.  Three sections cover the
pointwise probes of the seed-11 gridbox pool: ``grid-weak-duality`` the
``weak_duality_check`` verdicts at three members, ``grid-thm42`` a fixed
thm42 certificate check, whose ``(f + psi o L)*(0)`` and ``g*(psi)`` are the
dual sweep's one-member terms (``_member_inf``, ``_member_gstar``), and
``grid-probes`` psi-convexity at the primal minimizer, V at fixed
perturbations and the composite conjugate at zero.
``catalog-sweeps`` hashes the member sweeps of the strong-duality API on
the six catalog instances, conditions (a) to (d) and ``epi_decompose``,
and the intersection witnesses of the benchmark's ``catalog`` triples at
seed 1.

The bits depend on the numpy and BLAS build, as the catalog reference files
do, so a mismatch names the build the digests were recorded with.  A change
that means to move a value records the new digests with
``PYTHONPATH=src python tests/test_value_contract.py`` and says why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import abconv
from abconv import RandomSpec, conjugates, lagrange

ROOT = Path(__file__).resolve().parent.parent
RECORDED_WITH = "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (Haswell kernels), Python 3.11.7"

DIGESTS = {
    "gridbox-11": "183760d6976bb3b2d4947aac40ca7673bd8f0659b797fab792fe1db49b3fa9d1",
    "gridbox-1": "4652575c4e624b091e16ef20e758747f1399224ef6440dd1918b10242e3f01a3",
    "gridbox-2": "f1a5860f1dc29e95d5ffce57fa14e81f4c6d221f8b0031a9548f9ca277ed81be",
    "grid-vs-closed": "4dc752c50e10fc3612edea37a1b2000811dd81866bd3c225d5efe1ad5877e91a",
    "fuzz-11": "9d5e5cfea77f4b9fbda10184c99a0e8e4d06b388394f626ceb03a53e1e811ae4",
    "grid-weak-duality": "c2ff2646b1a59262203d53391ed04a6a6969d582039f92a713a7692344307843",
    "grid-thm42": "9627aa90f09919fd99aabb13b949d05002232ca8f78ba7ee58df2ea2dad2bfaf",
    "grid-probes": "93c7ffc7ab5df252080a0f666b57379ed10b73a70219b0b6677902bbecd6676b",
    "catalog-sweeps": "486a4ee0d68227e72268cb4892da8c8a0d4431b990ae087ff62b7463d0edf326",
}


def _module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload(name: str):
    """The benchmark's workload class of that name; ``workloads.py`` imports
    the sibling module ``spans`` by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return _module(ROOT / "perfbench" / "workloads.py", "perfbench_workloads").WORKLOADS[name]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@contextmanager
def _grid_tables():
    """Copies of the values and maximizers of every grid-engine table
    computed inside the block."""
    tables, engine = [], conjugates._grid_sup_table

    def record(*args):
        values, maximizers = engine(*args)
        tables.append((values.copy(), maximizers.copy()))
        return values, maximizers

    conjugates._grid_sup_table = record
    try:
        yield tables
    finally:
        conjugates._grid_sup_table = engine


def gridbox_digest(seed: int) -> str:
    """A gridbox request's outputs, ``run_report`` and a fresh ``dcp_value``,
    and the one grid-engine table of that ``dcp_value``: g* and its
    maximizers."""
    h = hashlib.sha256()
    for inst in workload("gridbox")(abconv, seed).pool:
        h.update(abconv.report_json(abconv.run_report(inst, certificates=False)).encode())
        with _grid_tables() as tables:
            h.update(np.float64(abconv.dcp_value(inst).value).tobytes())
        (values, maximizers), = tables
        h.update(values.tobytes())
        h.update(maximizers.tobytes())
    return h.hexdigest()


def grid_vs_closed_digest() -> str:
    fuzz = _module(ROOT / "scripts" / "fuzz_duality.py", "fuzz_duality_script")
    h = hashlib.sha256()
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            inst = fuzz.sized_instance(RandomSpec(n=n, m=m), 0)
            h.update(fuzz.whole_space_table(inst)[2].tobytes())
    return h.hexdigest()


def fuzz_digest(seed: int) -> str:
    """A fuzz request's sweeps: the two tables, the three dual-side values
    and the lp minimizer."""
    h = hashlib.sha256()
    for inst in workload("fuzz")(abconv, seed).pool:
        ctx = abconv.LagrangianContext(inst)
        lp = abconv.lp_value(ctx)
        h.update(ctx.gstar_table().tobytes())
        h.update(ctx.inf_table().tobytes())
        h.update(np.array([abconv.dcp_value(inst).value, abconv.ld_value(ctx).value,
                           lp.value]).tobytes())
        h.update(b"none" if lp.minimizer is None else lp.minimizer.tobytes())
    return h.hexdigest()


def _outcome(call) -> bytes:
    try:
        return repr(call()).encode()
    except abconv.InvariantViolation:
        return b"raises"


def weak_duality_members(n: int):
    """The phi of the weak-duality probes: the default 0, a concave member
    and an affine one."""
    return (None, abconv.GeneralizedQuadratic.iso(n, -1.0, 0.5 * np.ones(n)),
            abconv.GeneralizedQuadratic.affine(-2.0 * np.ones(n)))


def grid_weak_duality_digest(seed: int) -> str:
    """``weak_duality_check`` on each gridbox instance at three members."""
    verdicts = [abconv.weak_duality_check(inst, phi)
                for inst in workload("gridbox")(abconv, seed).pool
                for phi in weak_duality_members(inst.L.in_dim)]
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()


def grid_thm42_digest(seed: int) -> str:
    """A thm42 check on each gridbox instance at the primal minimizer with
    the middle member of the psi grid: holds, conditions and details."""
    h = hashlib.sha256()
    for inst in workload("gridbox")(abconv, seed).pool:
        x = abconv.primal_value(inst).minimizer
        psi = inst.psi_search.member_at(inst.psi_search.size // 2)
        check = abconv.verify_gap_certificate(inst, abconv.GapCertificate("thm42", 1e-3, x, psi))
        h.update(repr((check.holds, check.conditions)).encode())
        h.update(np.array(list(check.details.values())).tobytes())
    return h.hexdigest()


def grid_probes_digest(seed: int) -> str:
    """The pointwise probes of the composite on each gridbox instance:
    psi-convexity at the primal minimizer, V at seven fixed perturbations
    and the composite conjugate at zero."""
    h = hashlib.sha256()
    for inst in workload("gridbox")(abconv, seed).pool:
        n, m = inst.L.in_dim, inst.L.out_dim
        ctx = abconv.LagrangianContext(inst)
        x = abconv.primal_value(inst).minimizer
        h.update(_outcome(lambda: abconv.psi_convexity_at_optimum(ctx, x)))
        Y = np.linspace(-0.3, 0.3, 7)[:, None] * np.linspace(1.0, 0.5, m)
        h.update(lagrange._value_function_many(ctx, Y).tobytes())
        zero = abconv.GeneralizedQuadratic.zero(n)
        star = abconv.conjugate_value(inst.composite_objective(), zero, grid=inst.x_search)
        h.update(np.float64(star.value).tobytes())
        h.update(b"none" if star.maximizer is None else star.maximizer.tobytes())
    return h.hexdigest()


def _member_bytes(member) -> bytes:
    return member.A.tobytes() + member.u.tobytes() + np.float64(member.c).tobytes()


def catalog_sweeps_digest(seed: int) -> str:
    """On each catalog instance, with phi the input-class tangent of g o L
    at the primal minimizer and psi the dual's attaining member: condition
    (a) at (phi, (g o L)*(phi) + 0.5), (b) by grid search and at psi, (c)
    at (phi, psi), (d) without a witness and with (psi, the minimizer), and
    ``epi_decompose`` of (0, composite*(0) + 0.5).  Then the intersection
    witness of every benchmark ``catalog`` triple at the seed."""
    h = hashlib.sha256()
    check = abconv.decomposition_condition_check
    for name in abconv.catalog_names():
        inst = abconv.catalog_instance(name)
        x = abconv.primal_value(inst).minimizer
        psi = abconv.dcp_value(inst).attaining
        g_of_L = abconv.Objective.quadratic(abconv.pullback(inst.g.exact, inst.L))
        phi = inst.phi.tangent(g_of_L.exact, x)
        r = abconv.conjugate_value(g_of_L, phi).value + 0.5
        for verdict in (check(inst, "a", phi=phi, r=r), check(inst, "b"),
                        check(inst, "b", psi=psi), check(inst, "c", phi=phi, psi=psi),
                        check(inst, "d"), check(inst, "d", psi=psi, x=x)):
            h.update(repr((verdict.holds, verdict.kind, verdict.conditions)).encode())
            h.update(repr(list(verdict.details)).encode())
            h.update(np.array([v for v in verdict.details.values()
                               if not isinstance(v, str)], dtype=float).tobytes())
        zero = abconv.GeneralizedQuadratic.zero(inst.L.in_dim)
        level = abconv.conjugate_value(inst.composite_objective(), zero).value + 0.5
        split = abconv.epi_decompose(inst, abconv.EpiPoint(zero, level))
        if split is None:
            h.update(b"none")
        else:
            h.update(_member_bytes(split.phi1) + _member_bytes(split.psi))
            h.update(np.array([split.c_phi, split.c_psi]).tobytes())
    for p1, p2, alpha, _ in workload("catalog")(abconv, seed).triples:
        witness = abconv.intersection_property(p1, p2, alpha)
        h.update(b"none" if witness is None else np.array(
            [witness.t0, witness.alpha, witness.min_value]).tobytes())
    return h.hexdigest()


SECTIONS = {
    "gridbox-11": lambda: gridbox_digest(11),
    "gridbox-1": lambda: gridbox_digest(1),
    "gridbox-2": lambda: gridbox_digest(2),
    "grid-vs-closed": grid_vs_closed_digest,
    "fuzz-11": lambda: fuzz_digest(11),
    "grid-weak-duality": lambda: grid_weak_duality_digest(11),
    "grid-thm42": lambda: grid_thm42_digest(11),
    "grid-probes": lambda: grid_probes_digest(11),
    "catalog-sweeps": lambda: catalog_sweeps_digest(1),
}


@pytest.mark.parametrize("section", list(SECTIONS))
def test_section_digest(section):
    got = SECTIONS[section]()
    assert got == DIGESTS[section], (
        f"value contract section {section!r} moved: {got} != {DIGESTS[section]} "
        f"(recorded with {RECORDED_WITH}; this run has numpy {np.__version__})")


if __name__ == "__main__":
    for name, build in SECTIONS.items():
        print(f'    "{name}": "{build()}",')
