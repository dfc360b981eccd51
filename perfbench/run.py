#!/usr/bin/env python3
"""abconv benchmark: one client in a closed loop over one workload.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The client sends request k+1 when request k has completed and been checked.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
request twice, once untraced and once with abconv's public functions
wrapped in spans (alternating which goes first), and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  abconv is imported from ``src/`` next to this directory and
from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Setup is timed in this process and in fresh child processes; the median
# of all samples is reported, since one cold import is a noisy sample.
SETUP_SAMPLES = 5
# The tail percentile needs at least ten samples beyond it.
MIN_REQUESTS = 11
ENV_KNOBS = ("ABCONV_TOL", "ABCONV_THREADS")

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Setup


def import_abconv():
    if not (SRC / "abconv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no abconv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import abconv

    if Path(abconv.__file__).resolve().parent != (SRC / "abconv").resolve():
        raise SystemExit(f"perfbench: imported abconv from {abconv.__file__}, "
                         f"not from {SRC}")
    return abconv


def setup(workload: str, seed: int):
    """Import abconv, generate the inputs and run (and check) one warm-up
    request.  Returns the workload, the warm-up's problems and the time."""
    start = time.perf_counter()
    abc = import_abconv()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](abc, seed)
    problems = wl.check(0, wl.request(0, nullcontext))
    return wl, problems, time.perf_counter() - start


def setup_sample_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# Environment facts


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "abconv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    knobs = {name: os.environ.get(name) for name in ENV_KNOBS}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        **knobs,
        "abconv_env_unset": all(v is None for v in knobs.values()),
    }


# ---------------------------------------------------------------------------
# Measurement


def _execute(wl, k: int, span, corrupt: bool):
    start = time.perf_counter()
    try:
        out = wl.request(k, span)
    except Exception:  # a request that raises is a failed request
        return time.perf_counter() - start, [f"request {k} raised:\n{traceback.format_exc()}"]
    latency = time.perf_counter() - start
    if corrupt:
        out = wl.corrupt(out)
    return latency, wl.check(k, out)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(wl, seconds: float, corrupt_first: bool = False) -> dict:
    """Closed loop, untraced, in whole cycles of the workload's request kinds."""
    latencies, failures = [], []
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        latency, problems = _execute(wl, k, nullcontext, corrupt_first and k == 1)
        latencies.append(latency)
        failures.extend(problems[:1])
        if (k % wl.cycle == 0 and k >= MIN_REQUESTS
                and time.perf_counter() - start >= seconds):
            break
    elapsed = time.perf_counter() - start
    tail_pct, tail = _tail(latencies)
    return {
        "attempted": k,
        "failed": len(failures),
        "failures": failures,
        "req_per_s": k / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "tail_percentile": tail_pct,
    }


def measure_traced(wl, seed: int, seconds: float) -> dict:
    """Every request once untraced and once traced, in whole cycles; which
    goes first alternates by request and flips every cycle, so each kind
    runs first both ways.  Setup-phase layers come from one traced input
    generation."""
    from spans import REQUEST, SETUP, Tracer
    from workloads import WORKLOADS

    tracer = Tracer(winner_requests=wl.cycle)
    tracer.install()
    try:
        with tracer.span(SETUP):
            WORKLOADS[wl.name](wl.abc, seed)
    finally:
        tracer.uninstall()

    plain, traced, failures = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        first_traced = (k % wl.cycle + k // wl.cycle) % 2 == 1
        for use_trace in (first_traced, not first_traced):
            if not use_trace:
                latency, problems = _execute(wl, k, nullcontext, False)
                plain.append(latency)
            else:
                tracer.request = k
                tracer.install()
                try:
                    with tracer.span(REQUEST):
                        latency, problems = _execute(wl, k, tracer.span, False)
                finally:
                    tracer.uninstall()
                    tracer.request = -1
                traced.append(latency)
            failures.extend(problems[:1])
        if (k % wl.cycle == 0 and k >= MIN_REQUESTS
                and time.perf_counter() - start >= seconds):
            break
    return {
        "attempted": 2 * k,
        "failed": len(failures),
        "failures": failures,
        "tracer": tracer,
        "requests": k,
        # traced req/s over untraced req/s, on the same requests
        "overhead": sum(plain) / sum(traced),
    }


def per_layer(result: dict) -> tuple[dict, dict]:
    """Per-layer metrics (per traced request; setup layers per setup) and
    the facts behind the traced-run report."""
    from spans import LAYERS, REQUEST, SETUP, SETUP_LAYERS, STAGES

    tracer = result["tracer"]
    n = result["requests"]
    agg = tracer.aggregate()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        phase, per = (SETUP, "setup") if layer in SETUP_LAYERS else (REQUEST, "req")
        div = 1 if phase == SETUP else n
        calls, busy, self_s = agg.get((phase, layer), (0, 0.0, 0.0))
        put(f"{layer}.calls", calls / div, f"1/{per}")
        put(f"{layer}.busy_s", busy / div, f"s/{per}")
        put(f"{layer}.self_s", self_s / div, f"s/{per}")
    _, req_busy, req_self = agg[(REQUEST, REQUEST)]
    put("bench.request.busy_s", req_busy / n, "s/req")
    put("bench.request.self_s", req_self / n, "s/req")
    counts = tracer.counts
    put("conjugates.biconjugate_many.pairs",
        counts["conjugates.biconjugate_many.pairs"] / n, "1/req")
    put("conjugates.biconjugate_many.winner_ratio", tracer.winner_ratio(), "ratio")
    put("conjugates.family_conjugate_table.members",
        counts["conjugates.family_conjugate_table.members"] / n, "1/req")
    put("objectives.values.points", counts["objectives.values.points"] / n, "1/req")
    members = counts["duality.dcp_value.members"]
    put("duality.dcp_value.live_ratio",
        counts["duality.dcp_value.live"] / members if members else 0.0, "ratio")
    put("trace.overhead", result["overhead"], "ratio")

    self_total = sum(row[2] for (phase, _), row in agg.items() if phase == REQUEST)
    shares = sorted(((row[2] / req_busy, name) for (phase, name), row in agg.items()
                     if phase == REQUEST), reverse=True)
    stages = {name: agg.get((REQUEST, name), (0, 0.0, 0.0))[1] / req_busy
              for name in STAGES}
    facts = {
        "self_sum_s": self_total,
        "request_busy_s": req_busy,
        "self_shares": shares,
        "stage_shares": stages,
        "top_self": next(name for _, name in shares if name != REQUEST),
        "top_stage": max(stages, key=stages.get),
        "spans": len(tracer.spans),
        "missing": tracer.missing,
    }
    return metrics, facts


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_samples: int = SETUP_SAMPLES, corrupt_first: bool = False) -> dict:
    wl, warmup_problems, own_setup = setup(workload, seed)
    env = environment(seed)
    if trace:
        result = measure_traced(wl, seed, seconds)
        metrics, facts = per_layer(result)
    else:
        samples = [own_setup] + [setup_sample_in_child(workload, seed)
                                 for _ in range(setup_samples - 1)]
        result = measure(wl, seconds, corrupt_first)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(samples),
            "req_per_s": result["req_per_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_tail_ms": result["latency_tail_ms"],
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        facts = {"setup_samples_s": samples,
                 "tail_percentile": result["tail_percentile"]}
    attempted = result["attempted"] + 1
    failed = result["failed"] + bool(warmup_problems)
    return {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "facts": facts,
        "failures": warmup_problems[:1] + result["failures"],
        "failed_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "tracer": result.get("tracer"),
    }


# ---------------------------------------------------------------------------
# Output


def report(res: dict) -> None:
    env, facts, metrics = res["env"], res["facts"], res["metrics"]
    print(f"perfbench workload={res['workload']} seed={env['seed']} "
          f"trace={res['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    if not env["abconv_env_unset"]:
        print("WARNING: " + ", ".join(f"{k}={env[k]}" for k in ENV_KNOBS
                                      if env[k] is not None)
              + " is set; this run does not measure the default configuration")
    for problem in res["failures"][:5]:
        print(f"FAILED: {problem}")
    print(f"requests attempted={res['attempted']} failed={res['failed']}")
    print(f"failed_ratio = {res['failed_ratio']:.6g} ratio")
    if not res["trace"]:
        for name, m in metrics.items():
            extra = ""
            if name == "latency_tail_ms":
                extra = (f"  (p{facts['tail_percentile']:.2f} of "
                         f"{res['attempted'] - 1} requests, 10 beyond it)")
            if name == "setup_s":
                extra = "  (median of " + ", ".join(
                    f"{s:.3f}" for s in facts["setup_samples_s"]) + ")"
            print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
        return
    print(f"trace: {facts['spans']} spans; self times sum to "
          f"{facts['self_sum_s']:.6f} s of {facts['request_busy_s']:.6f} s busy")
    if facts["missing"]:
        print("trace: not found, reported as 0: " + ", ".join(facts["missing"]))
    print("self-time shares of traced request time:")
    for share, name in facts["self_shares"]:
        if share >= 0.001:
            print(f"  {share:7.2%}  {name}")
    print("stage busy shares: " + ", ".join(
        f"{name} {share:.2%}" for name, share in facts["stage_shares"].items()))
    print(f"largest self time: {facts['top_self']}; "
          f"largest stage: {facts['top_stage']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def write_outputs(res: dict) -> None:
    OUT.mkdir(exist_ok=True)
    tag = f"{res['workload']}-trace{res['trace']}"
    if res["tracer"] is not None:
        res["tracer"].write(OUT / f"spans-{res['workload']}.jsonl")
    keep = {k: v for k, v in res.items() if k != "tracer"}
    (OUT / f"result-{tag}.json").write_text(json.dumps(keep, indent=2, default=str))


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    })


# ---------------------------------------------------------------------------
# Smoke mode


def smoke() -> int:
    """Short runs of every workload, traced and untraced, checking that every
    metric named in BENCHMARK.json is printed, that self times sum to busy
    time, and that an output corrupted on purpose is counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, 7, 0.0, False, setup_samples=2, corrupt_first=True)
        traced = run(name, 7, 0.0, True)
        report(plain)
        report(traced)
        if set(plain["metrics"]) != want_e2e:
            problems.append(f"{name}: end-to-end metrics {sorted(plain['metrics'])}")
        if set(traced["metrics"]) != want_layer:
            missing = want_layer ^ set(traced["metrics"])
            problems.append(f"{name}: per-layer metrics differ: {sorted(missing)}")
        facts = traced["facts"]
        if not math.isclose(facts["self_sum_s"], facts["request_busy_s"],
                            rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{name}: self times sum to {facts['self_sum_s']!r}, "
                            f"busy time is {facts['request_busy_s']!r}")
        if plain["failed"] != 1:
            problems.append(f"{name}: one corrupted output, {plain['failed']} failed")
        if traced["failed"] != 0:
            problems.append(f"{name}: traced run failed {traced['failed']} requests")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("catalog", "fuzz", "gridbox", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short self-check of the benchmark itself")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _, problems, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "failed": bool(problems)}))
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # One process per workload, so that peak memory is each one's own.
        for name in ("catalog", "fuzz", "gridbox"):
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT).returncode
            if code:
                return code
        return 0
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res)
    write_outputs(res)
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
