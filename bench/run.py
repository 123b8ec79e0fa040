"""condinfer benchmark: run one workload once and print one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Each run starts fresh single-threaded processes (BLAS threads
pinned to 1): with ``--trace 0``, four set-up-only processes and then the
workload process, which sets up the same way and runs the workload for
``--seconds``; ``setup_s`` is the median of the five set-up times.  With
``--trace 1`` the workload process makes a fixed number of rounds untraced
and the same rounds traced, and reports the per-layer figures.  The last
line of output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("simulate_m5", "infer_equal_m371", "infer_superset_m371", "infer_cellwise")

#: Set-ups per run, including the workload process's own.
SETUPS = 5

#: Wall-clock budget of a whole run, in seconds.
DEADLINE_S = 170.0

SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "CONDINFER_WORKERS",
    )
}


def _child(args, workdir: str, extra: list[str], deadline: float) -> dict:
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD_ENV},
        capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "condinfer", "__init__.py")):
        print(f"error: no condinfer sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for k in range(SETUPS - 1):
                child_out = _child(args, os.path.join(scratch, f"setup{k}"), ["--setup-only"], deadline)
                setups.append(child_out["setup_s"])
        out = _child(args, os.path.join(scratch, "run"), [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    metrics = out["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(
        f"{args.workload} seed={args.seed}: {out['attempted']} calls in {out['rounds']} rounds, "
        f"{out['items']} items, {out['failed']} failed; set-up seconds {[round(x, 4) for x in setups]}; "
        f"call seconds {out['durations']}"
    )
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
