"""Regenerate reference.json, the stored outputs of the exhaustive workloads.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: the benchmark compares
every later run with what this writes. The search records' witnesses and the
sweep's bounds and coloop sets are checked against the independent oracles
before anything is written. The queries workload has no stored reference; its
outputs are checked against oracles.py on every run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> None:
    spec = workloads.search_setup(0)
    records, _ = workloads.search_run(spec)
    search = {
        "canonical": sorted(list(record.canonical) for record in records),
        "sizes": [sum(1 for r in records if r.size == n)
                  for n in range(1, workloads.SEARCH_MAX_ELEMENTS + 1)],
    }
    verdict = workloads.search_check(records, search)
    if verdict.failed:
        sys.exit(f"search outputs fail the oracle: {verdict.detail}")

    tables = workloads.sweep_setup(0)
    (tables, rows), _ = workloads.sweep_run(tables)
    sweep = {
        "tables": len(tables),
        "cases": sum(len(row[2]) for row in rows),
        "blocks": workloads.sweep_block_digests(tables, rows),
    }
    verdict = workloads.sweep_check((tables, rows), sweep)
    if verdict.failed:
        sys.exit(f"sweep outputs fail the oracle: {verdict.detail}")

    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump({"search": search, "sweep": sweep}, handle, indent=1)
        handle.write("\n")
    print(f"search: {search['sizes']}; sweep: {sweep['tables']} tables, "
          f"{sweep['cases']} cases")


if __name__ == "__main__":
    main()
