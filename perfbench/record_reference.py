#!/usr/bin/env python3
"""Record the catalog workload's reference outputs from the current source.

Writes ``reference/gap/<name>.json`` (the exact bytes ``abconv gap <name>
--json`` writes) and ``reference/catalog_facts.json`` (the number of
reproduction checks and the lsc-probe verdict per instance).  Run it from
the repository root only when a change to the reported numbers is intended:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import abconv  # noqa: E402

from workloads import CATALOG, REFERENCE  # noqa: E402


def main() -> int:
    texts, facts = {}, {}
    for name in CATALOG:
        inst = abconv.catalog_instance(name)
        report = abconv.run_report(inst)
        rows = abconv.reproduce_checks(name)
        if not all(row.passed for row in rows) or not report["weak_duality_ok"]:
            print(f"{name}: reference facts do not hold; nothing recorded")
            return 1
        texts[name] = abconv.report_json(report)
        facts[name] = {
            "checks": len(rows),
            "lsc": abconv.lsc_probe_at_zero(abconv.LagrangianContext(inst)),
        }
    (REFERENCE / "gap").mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (REFERENCE / "gap" / f"{name}.json").write_text(text)
    (REFERENCE / "catalog_facts.json").write_text(json.dumps(facts, indent=2) + "\n")
    print(f"recorded {len(facts)} instances in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
