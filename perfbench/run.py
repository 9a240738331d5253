#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the libraries under src/ and the
perfbench binary (Release) into .bench_build/perfbench, then runs one
workload. The binary's notes go to stdout, followed by one JSON line:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and a Chrome trace-event file is written
to .bench_out/. Workloads and the reason each exists are listed in
BENCHMARK.json.

The native backend compiles into a fixed /tmp directory, so the binary
runs in a private mount namespace with a checkout-local directory
mounted on /tmp; every file a run writes stays in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("service_warm", "service_cold", "suite_tune", "native_tier")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def private_tmp_prefix(tmp_dir):
    """Command prefix that mounts tmp_dir on /tmp for the binary only."""
    if shutil.which("unshare") and subprocess.run(
            ["unshare", "-m", "true"], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0:
        return ["unshare", "-m", "sh", "-c",
                'mount --bind "$0" /tmp && exec "$@"', tmp_dir]
    print("perfbench: no mount namespace; native artifacts use /tmp",
          file=sys.stderr)
    return []


def select_metrics(values, trace):
    """BENCHMARK.json's metrics for the mode, with their units.

    Returns None when an end-to-end metric was not measured; a layer the
    workload does not reach reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values and not trace:
            return None
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    tmp_dir = os.path.join(ROOT, ".bench_tmp")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        proc = subprocess.run(private_tmp_prefix(tmp_dir) + cmd, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        run = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result (exit %d)" % proc.returncode)
    metrics = select_metrics(run["values"], args.trace)
    correct = run["correct"] and metrics is not None
    print(json.dumps({"correct": correct,
                      "attempted": max(run["attempted"], 1),
                      "failed": run["failed"] if correct else
                      max(run["failed"], 1),
                      "metrics": metrics or {}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
