"""Self-test of the benchmark's checker: planted wrong answers must fail.

    python3 bench/selftest.py

Builds the ``infer_cellwise`` and ``infer_equal_m371`` inputs for seed
``SEED``, runs the first ``CASES`` commands of each once through
``condinfer.cli.main``, checks that the true answers pass, and then checks
that each of three planted errors is rejected on every answer: ``ci_lo``
shifted by 1e-4, one support interval dropped (from the effect with the
most intervals), and two effects' results swapped.  Exits 1 if a true
answer fails or a wrong one passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload seed of the inputs, and commands checked per workload.
SEED = 1
CASES = 4


def shift_ci_lo(doc):
    doc["results"][0]["ci_lo"] += 1e-4


def drop_interval(doc):
    widest = max(doc["results"], key=lambda r: len(r["support"]))
    widest["support"].pop(len(widest["support"]) // 2)


def swap_effects(doc):
    first, second = doc["results"][0], doc["results"][1]
    for key in first:
        if key not in ("index", "id"):
            first[key], second[key] = second[key], first[key]


MUTATIONS = (shift_ci_lo, drop_interval, swap_effects)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import condinfer as ci
    import condinfer.cli  # noqa: F401

    import checker
    from workloads import InferCellwise, InferEqualM371

    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    ok = True
    try:
        cases = []
        for kind in (InferCellwise, InferEqualM371):
            workload = kind(ci, workdir, SEED)
            workload.build()
            cases += workload.cases[:CASES]
        for case in cases:
            if case.run(ci) != 0:
                print(f"{case.name}: the program failed")
                return 1
            with open(case.out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            inputs = case.case()
            problems = checker.check_infer(doc, inputs)
            most = max(len(r["support"]) for r in doc["results"])
            print(f"{case.name}: true answer {'passes' if not problems else 'FAILS'}"
                  f" (up to {most} support intervals per effect)")
            ok &= not problems
            for mutate in MUTATIONS:
                wrong = copy.deepcopy(doc)
                mutate(wrong)
                problems = checker.check_infer(wrong, inputs)
                verdict = f"rejected ({problems[0]})" if problems else "NOT REJECTED"
                print(f"{case.name}: {mutate.__name__}: {verdict}")
                ok &= bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
