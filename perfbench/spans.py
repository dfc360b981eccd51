"""In-memory span tracer that wraps abconv's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds every name in
the ``abconv`` modules (and ``Objective.values`` on its class) that refers
to a traced function, and ``Tracer.uninstall`` puts the originals back.
Spans are appended to a list as ``(name, start, end, parent, request)`` and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute).  Two attributes may share one span name:
# the certificate ladder is every tangent-certificate build plus every check.
TARGETS = (
    ("quadratics.combine", "abconv.quadratics", "combine"),
    ("objectives.values", "abconv.objectives", "Objective.values"),
    ("conjugates.minimize_quadratic", "abconv.conjugates", "minimize_quadratic"),
    ("conjugates.conjugate_grid", "abconv.conjugates", "conjugate_grid"),
    ("conjugates.family_conjugate_table", "abconv.conjugates", "family_conjugate_table"),
    ("conjugates.biconjugate_many", "abconv.conjugates", "biconjugate_many"),
    ("duality.primal_value", "abconv.duality", "primal_value"),
    ("duality.composite_inf_table", "abconv.duality", "composite_inf_table"),
    ("duality.g_conjugate_table", "abconv.duality", "g_conjugate_table"),
    ("duality.dcp_value", "abconv.duality", "dcp_value"),
    ("duality.certificate_ladder", "abconv.duality", "build_tangent_certificate"),
    ("duality.certificate_ladder", "abconv.duality", "verify_gap_certificate"),
    ("lagrange.lp_value", "abconv.lagrange", "lp_value"),
    ("lagrange.intersection_property", "abconv.lagrange", "intersection_property"),
    ("lagrange.lsc_probe_at_zero", "abconv.lagrange", "lsc_probe_at_zero"),
    ("lagrange.value_function", "abconv.lagrange", "value_function"),
    ("report.run_report", "abconv.report", "run_report"),
    ("report.report_json", "abconv.report", "report_json"),
    ("catalog.reproduce_checks", "abconv.catalog", "reproduce_checks"),
    ("randomgen.random_instance", "abconv.randomgen", "random_instance"),
)

# Spans opened by the benchmark itself rather than by a wrapped function.
REQUEST = "bench.request"
SETUP = "bench.setup"
ROUNDTRIP = "instances.roundtrip"

# Layers whose spans happen while inputs are generated, not inside requests.
SETUP_LAYERS = ("randomgen.random_instance",)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS)) + (ROUNDTRIP,)

# The sweep stages named in the ROADMAP; none of them runs inside another on
# the benchmark's requests, so their busy times can be compared as shares.
STAGES = (
    "duality.composite_inf_table",
    "conjugates.family_conjugate_table",
    "conjugates.biconjugate_many",
    "lagrange.intersection_property",
    "duality.certificate_ladder",
)


def _arg(args, kwargs, index, name):
    """A wrapped call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Records spans and per-layer counts while installed.

    The biconjugate calls of requests 1..``winner_requests`` (one cycle of
    request kinds) are kept by reference for the winner count, which costs as
    much as the call itself and is therefore computed after the run."""

    def __init__(self, winner_requests: int = 0) -> None:
        self.winner_requests = winner_requests
        self.spans: list = []
        self.stack: list[int] = []
        self.request: int = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.winner_samples: list = []
        self.missing: list[str] = []
        self._bindings_cache: list | None = None

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # span() inlined: this runs on every call of a wrapped function.
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if count is not None and self.request >= 0:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------

    def _bindings(self) -> list:
        """``(owner, attribute, original, wrapper)`` for every name bound to
        a target; targets that cannot be found are listed in ``missing``."""
        bindings = []
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "abconv" or key.startswith("abconv."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, key = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = vars(owner).get(key) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            if owner_name:
                bindings.append((owner, key, orig, wrapper))
                continue
            for mod in modules:
                for k, value in vars(mod).items():
                    if value is orig:
                        bindings.append((mod, k, orig, wrapper))
        return bindings

    def install(self) -> None:
        if self._bindings_cache is None:
            self._bindings_cache = self._bindings()
        for owner, key, _, wrapper in self._bindings_cache:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._bindings_cache or ()):
            setattr(owner, key, orig)

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls, busy and self seconds per (root name, span name)."""
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        table: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = table[(self.spans[root[i]][0], name)]
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - child[i]
        return dict(table)

    def winner_ratio(self) -> float:
        """Finite members that attain the biconjugate max at some query
        point, over finite members, across the sampled calls."""
        winners = finite_total = 0
        for X, slopes, curvatures, table in self.winner_samples:
            w, f = _winners(X, slopes, curvatures, table)
            winners += w
            finite_total += f
        return winners / finite_total if finite_total else 0.0

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "request": request}) + "\n")


def _winners(X, slopes, curvatures, table, chunk: int = 256) -> tuple[int, int]:
    X = np.asarray(X, dtype=float)
    rows = []
    for i, beta in enumerate(curvatures):
        fin = np.isfinite(table[i])
        if np.any(fin):
            rows.append((i, beta, fin))
    finite_total = sum(int(fin.sum()) for _, _, fin in rows)
    won = {i: np.zeros(int(fin.sum()), dtype=bool) for i, _, fin in rows}
    for start in range(0, len(X), chunk):
        Xb = X[start:start + chunk]
        sq = np.sum(Xb * Xb, axis=1)
        lin = Xb @ slopes.T
        vals = {i: beta * sq[:, None] + lin[:, fin] - table[i][fin]
                for i, beta, fin in rows}
        best = np.max([v.max(axis=1) for v in vals.values()], axis=0)
        for i, v in vals.items():
            won[i] |= np.any(v >= best[:, None], axis=0)
    return sum(int(w.sum()) for w in won.values()), finite_total


# -- per-layer counters (run after the span closes, requests only) -------


def _count_biconjugate(tracer, args, kwargs, result) -> None:
    X = _arg(args, kwargs, 1, "X")
    search = _arg(args, kwargs, 2, "search")
    table = _arg(args, kwargs, 3, "table")
    if table is None:
        return
    finite = int(np.isfinite(table).sum())
    tracer.counts["conjugates.biconjugate_many.pairs"] += len(X) * finite
    if tracer.request <= tracer.winner_requests:
        tracer.winner_samples.append(
            (np.asarray(X), search.slopes(), search.curvatures, table))


def _count_members(tracer, args, kwargs, result) -> None:
    tracer.counts["conjugates.family_conjugate_table.members"] += \
        _arg(args, kwargs, 1, "search").size


def _count_points(tracer, args, kwargs, result) -> None:
    tracer.counts["objectives.values.points"] += len(_arg(args, kwargs, 1, "X"))


def _count_dcp(tracer, args, kwargs, result) -> None:
    # A member can be both infeasible and unbounded, so the two exclusion
    # counts of the result may overlap; count live members from the tables,
    # on the calls that receive them (every ld_value call does).
    inf_table = _arg(args, kwargs, 1, "inf_table")
    gstar_table = _arg(args, kwargs, 2, "gstar_table")
    if inf_table is None or gstar_table is None:
        return
    dead = (gstar_table == np.inf) | (inf_table == -np.inf)
    tracer.counts["duality.dcp_value.members"] += dead.size
    tracer.counts["duality.dcp_value.live"] += dead.size - int(dead.sum())


_COUNTERS = {
    "conjugates.biconjugate_many": _count_biconjugate,
    "conjugates.family_conjugate_table": _count_members,
    "objectives.values": _count_points,
    "duality.dcp_value": _count_dcp,
}
