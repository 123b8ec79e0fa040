"""One benchmark process: set up a workload, then run it closed-loop.

Started by ``run.py`` in a fresh process with BLAS threads pinned to 1.
Prints one JSON object on its last line of output.  With ``--setup-only``
it stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_rounds(ci, workload, seconds=None, rounds=None):
    """Run whole rounds, one call at a time, and time each call.

    With ``rounds`` the count is fixed; otherwise another round starts only
    while the elapsed time plus the mean round time stays within
    ``seconds`` (at least one round is always made).  Answers are parsed
    and checked between calls, outside the per-call timings.
    """
    durations, ops, problems = [], [], []
    items = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.round(index):
            t0 = time.perf_counter()
            try:
                result = op.run(ci)
            except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
                durations.append(time.perf_counter() - t0)
                failed += 1
                print(f"{op.name}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            durations.append(time.perf_counter() - t0)
            op_failed, op_items, op_problems = op.outcome(result)
            failed += op_failed
            items += op_items
            problems += op_problems
            ops.append(op)
        index += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if index >= rounds:
                break
        elif elapsed * (index + 1) / index > seconds:
            break
    return dict(
        durations=durations, ops=ops, problems=problems, items=items,
        failed=failed, rounds=index,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import condinfer as ci
    import condinfer.cli  # noqa: F401 - the infer entry point

    import_s = time.perf_counter() - t0
    from layers import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ci, args.workdir, args.seed)
    tracer = Tracer(ci) if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    workload.build()
    setup_s = import_s + time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.warm_up()
    if tracer:
        plain = run_rounds(ci, workload, rounds=workload.trace_rounds)
        tracer.install()
        run = run_rounds(ci, workload, rounds=workload.trace_rounds)
        tracer.uninstall()
        metrics = tracer.metrics()
        overhead = sum(run["durations"]) - sum(plain["durations"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        run["problems"] += plain["problems"]
    else:
        run = run_rounds(ci, workload, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": run["items"] / sum(run["durations"]), "unit": "1/s"},
            "call_p50_s": {"value": statistics.median(run["durations"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    problems = run["problems"] + workload.finish(run["ops"])
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run["durations"]),
        "failed": run["failed"],
        "rounds": run["rounds"],
        "items": run["items"],
        "durations": [round(d, 4) for d in run["durations"]],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
