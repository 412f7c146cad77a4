"""One measured repeat of one workload, in a fresh interpreter.

run.py starts this script once per repeat, one at a time, so the process
globals that pmkit fills as it works (the class cache and the
``essential_bound`` LRU cache) start empty every time, as they do for each
``pmkit`` command. It prints one JSON object on its last line of output.
Times in it are at the reference machine speed (clock.py); the ``*_raw_s``
fields hold the measured wall-clock seconds.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--setup-only] [--trace-out PATH --run-id ID]
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import clock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> None:
    sampler = clock.SpeedSampler().start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer(args.run_id).install()
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    # CLOCK_MONOTONIC is system-wide, so this compares with the parent's clock.
    setup_raw = time.monotonic() - args.spawned_at
    start = time.perf_counter()
    result: dict = {"setup_raw_s": setup_raw,
                    "setup_s": setup_raw * sampler.scale(STARTED, start)}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(result))
        return

    outputs, latencies = run(inputs)
    end = time.perf_counter()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.stop()
    scale = sampler.scale(start, end)
    result.update(wall_raw_s=end - start, wall_s=(end - start) * scale,
                  latencies_ms=[x * 1000 * scale for x in latencies])
    if tracer is not None:
        tracer.remove()
        result["trace"] = {name: value * scale if name.endswith("self_s") else value
                           for name, value in tracer.metrics().items()}
        tracer.write(args.trace_out)

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle).get(args.workload)
    verdict = check(outputs, reference)
    result.update(correct=verdict.correct, attempted=verdict.attempted,
                  failed=verdict.failed, detail=verdict.detail)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
