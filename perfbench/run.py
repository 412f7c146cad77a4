"""pmkit benchmark: one closed-loop caller, a fresh interpreter per repeat.

    python3 perfbench/run.py --workload {search,sweep,queries,all} --seed N
        --seconds S --trace {0,1}

Run it from the root of a pmkit checkout; it imports pmkit from ./src.

All times are seconds at a reference machine speed (clock.py): a thread in
each worker samples the host's speed while it works, and the measured
wall-clock times are printed beside them.

With --trace 0 it first starts SETUP_PROBES interpreters that only set up,
then measured repeats one at a time until their time to solution adds up to
S seconds (at least one repeat). Each repeat runs in its own interpreter
(worker.py), so pmkit's process-global caches start cold, as they do for each
`pmkit` command. Every repeat's outputs are checked (workloads.py) before any
number is printed.

With --trace 1 it runs one untraced and one traced repeat of the same input
and reports the per-layer metrics of the traced one (tracing.py), with
trace.overhead_s = traced minus untraced time to solution. The spans go to
perfbench/out/.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. Every line before it is for people: each metric with its
unit, the spread of the repeats, and failed_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("search", "sweep", "queries")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.iter_rank_tables.tables": "count",
    "core.iter_rank_tables.self_s": "s",
    "core.canonical_form.calls": "count",
    "core.canonical_form.self_s": "s",
    "core.minor.calls": "count",
    "core.minor.self_s": "s",
    "core.validate.calls": "count",
    "core.validate.self_s": "s",
    "minors.class_membership.calls": "count",
    "minors.class_membership.self_s": "s",
    "minors.class_membership.hit_ratio": "ratio",
    "natural.value_at.calls": "count",
    "natural.grids_built": "count",
    "natural.multiset_rank.calls": "count",
    "natural.multiset_rank.self_s": "s",
    "compression.compress.calls": "count",
    "compression.compress.self_s": "s",
    "decomposition.essential_bound.calls": "count",
    "decomposition.essential_bound.self_s": "s",
    "decomposition.essential_bound.hit_ratio": "ratio",
    "decomposition.compression_collapse.calls": "count",
    "decomposition.compression_collapse.self_s": "s",
    "polytope.lattice_points.calls": "count",
    "polytope.lattice_points.self_s": "s",
    "polytope.lattice_points.points": "count",
    "serialize.loads_polymatroid.self_s": "s",
    "serialize.grid_csv.self_s": "s",
    "serialize.grid_csv.rows": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run worker.py to completion and return its result object."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(spawned_at), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[float]]:
    setups = [spawn(workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    repeats: list[dict] = []
    while not repeats or sum(r["wall_s"] for r in repeats) < seconds:
        repeats.append(spawn(workload, seed))
    setups += [r["setup_s"] for r in repeats]
    latencies = [x for r in repeats for x in r["latencies_ms"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in repeats),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": p90(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
    }
    return metrics, repeats, setups


def trace(workload: str, seed: int) -> tuple[dict, list[dict]]:
    plain = spawn(workload, seed)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run_id = f"{workload}-{seed}-{time.time_ns()}"
    traced = spawn(workload, seed, "--trace-out",
                   os.path.join(out_dir, f"spans-{workload}.gz"), "--run-id", run_id)
    metrics = {name: traced["trace"][name] for name in PER_LAYER
               if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"  trace run {run_id}: untraced {plain['wall_s']:.3f} s, "
          f"traced {traced['wall_s']:.3f} s (measured wall clock: "
          f"{plain['wall_raw_s']:.3f} s, {traced['wall_raw_s']:.3f} s)")
    return metrics, [plain, traced]


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    print(f"{workload} (seed {seed}, {'traced' if traced else f'{seconds:g} s'})")
    if traced:
        metrics, repeats = trace(workload, seed)
        units = PER_LAYER
    else:
        metrics, repeats, setups = measure(workload, seed, seconds)
        units = END_TO_END
        q1, q3 = quartiles([r["wall_s"] for r in repeats])
        raw = ", ".join(f"{r['wall_raw_s']:.3f}" for r in repeats)
        print(f"  {len(repeats)} repeats, wall_s quartiles {q1:.4f} .. {q3:.4f} s "
              f"(measured wall clock: {raw} s); {len(setups)} set-ups; "
              f"{sum(len(r['latencies_ms']) for r in repeats)} request latencies")
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    correct = all(r["correct"] for r in repeats)
    for r in repeats:
        print(f"  check: {r['detail']}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6f} {units[name]}")
    print(f"  {'failed_frac':45s} {failed / attempted:14.6f} ({failed}/{attempted})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pmkit", "__init__.py")):
        print(f"no pmkit sources under {os.path.join(ROOT, 'src')}; run from the "
              "root of a pmkit checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: bench(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
