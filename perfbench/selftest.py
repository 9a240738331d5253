#!/usr/bin/env python3
"""Benchmark self-test: exact counts must repeat exactly for one seed.

    python3 perfbench/selftest.py [--seed N]

Runs each workload that reports exact counts twice as a short trace run
through perfbench/run.py and compares those counts. Timing figures are
not compared. Exits 1 on any difference or on a count that reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# Counts that depend only on the seed and the program, never on timing.
EXACT = {
    "suite_tune": ["interp.steps", "cfg.blocks", "tune.evaluations",
                   "lang.calls", "opt.pipeline_calls"],
    "native_tier": ["backend.c_kb"],
    "service_warm": ["service.setup_hits", "service.setup_misses",
                     "service.setup_evictions"],
}
MAY_BE_ZERO = {"service.setup_evictions"}


def counts(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().split("\n")[-1])
    if not result["correct"]:
        sys.exit("%s: run reported incorrect output" % workload)
    return {k: result["metrics"][k]["value"] for k in EXACT[workload]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = True
    for workload in EXACT:
        first, second = counts(workload, args.seed), counts(workload,
                                                             args.seed)
        for name, value in first.items():
            same = value == second[name]
            nonzero = value != 0 or name in MAY_BE_ZERO
            ok &= same and nonzero
            print("%-5s %s %s: %r %r" % ("ok" if same and nonzero else "FAIL",
                                        workload, name, value, second[name]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
