#!/usr/bin/env python3
"""Append the current headline benchmark numbers to bench/history.jsonl.

Reads reports whose gates scripts/check_gates.py evaluates —
service_throughput.json (cold/warm service rps + warm speedup),
analysis_time.json (the sparse vs dense solver speedup at n=1000),
pipeline_latency.json (per-stage p99), interp_tiers.json (the
native-over-bytecode execution-tier speedup with its compile
break-even), and tune_report.json (the autotuner's static-search
recovery, winning-config agreement, and mean regret) — condenses them
into one history entry, appends it to ``bench/history.jsonl``, and
prints the deltas against the last entry from the same host so a
regression is visible the moment the history grows.

Each entry records its ``host`` (CPU model, vCPUs, cc version): wall
times from two machines are not comparable, so deltas are printed only
between entries of one host. Entries without a host count as an
unknown host and are never compared.

The history is line-delimited JSON (one entry per line, schema
``sest-bench-history/1``) so it diffs cleanly, appends atomically, and
feeds straight into sestc --validate-json or any JSONL tooling.

Usage:
    scripts/bench_history.py [--bench-dir bench] [--history FILE]
                             [--label TEXT] [--dry-run]

Typically run right after scripts/regenerate.sh, which refreshes the
source reports from a Release build.
"""

import argparse
import json
import os
import subprocess
import sys

SCHEMA = "sest-bench-history/1"

HEADLINES = [
    # (key, source description, higher_is_better)
    ("service_cold_rps", "service_throughput.json cold.rps", True),
    ("service_warm_rps", "service_throughput.json warm.rps", True),
    ("service_warm_speedup", "service_throughput.json warm_speedup", True),
    ("solver_sparse_speedup_1000", "analysis_time.json dense/sparse @1000", True),
    ("stage_parse_p99_us", "pipeline_latency.json parse p99", False),
    ("stage_cfg_p99_us", "pipeline_latency.json cfg p99", False),
    ("stage_callgraph_p99_us", "pipeline_latency.json callgraph p99", False),
    ("stage_estimate_p99_us", "pipeline_latency.json estimate p99", False),
    ("native_over_bytecode", "interp_tiers.json suite bytecode/native", True),
    ("native_suite_ms", "interp_tiers.json suite native_ms", False),
    ("native_compile_ms", "interp_tiers.json suite native_compile_ms", False),
    ("native_breakeven_runs", "interp_tiers.json suite breakeven_runs", False),
    ("tune_static_recovery", "tune_report.json static_search_recovery", True),
    ("tune_config_overlap", "tune_report.json mean_config_overlap", True),
    ("tune_mean_regret", "tune_report.json mean_regret", False),
]


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_history: cannot read {path}: {e}", file=sys.stderr)
        return None


def git_revision(repo_root):
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    return "unknown"


def host_info():
    """The machine the reports were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cc = "unknown"
    try:
        out = subprocess.run(["cc", "--version"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout:
            cc = out.stdout.splitlines()[0].strip()
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count() or 0, "cc": cc}


def collect_entry(bench_dir):
    """One history entry from the current bench/*.json reports."""
    entry = {"schema": SCHEMA}

    svc = load_json(os.path.join(bench_dir, "service_throughput.json"))
    if svc:
        entry["service_cold_rps"] = float(svc.get("cold", {}).get("rps", 0.0))
        entry["service_warm_rps"] = float(svc.get("warm", {}).get("rps", 0.0))
        entry["service_warm_speedup"] = float(svc.get("warm_speedup", 0.0))

    at = load_json(os.path.join(bench_dir, "analysis_time.json"))
    if at:
        times = {
            b.get("name"): float(b.get("real_time", 0.0))
            for b in at.get("benchmarks", [])
        }
        sparse = times.get("solver/sparse/1000", 0.0)
        dense = times.get("solver/dense/1000", 0.0)
        if sparse > 0.0 and dense > 0.0:
            entry["solver_sparse_speedup_1000"] = dense / sparse

    tiers = load_json(os.path.join(bench_dir, "interp_tiers.json"))
    if tiers and tiers.get("native_available", False):
        suite = tiers.get("suite", {})
        entry["native_over_bytecode"] = float(
            suite.get("bytecode_over_native", 0.0))
        entry["native_suite_ms"] = float(suite.get("native_ms", 0.0))
        entry["native_compile_ms"] = float(
            suite.get("native_compile_ms", 0.0))
        entry["native_breakeven_runs"] = float(
            suite.get("breakeven_runs", 0.0))

    tune = load_json(os.path.join(bench_dir, "tune_report.json"))
    if tune:
        suite = tune.get("suite", {})
        entry["tune_static_recovery"] = float(
            suite.get("static_search_recovery", 0.0))
        entry["tune_config_overlap"] = float(
            suite.get("mean_config_overlap", 0.0))
        entry["tune_mean_regret"] = float(suite.get("mean_regret", 0.0))

    lat = load_json(os.path.join(bench_dir, "pipeline_latency.json"))
    if lat:
        for stage, stats in sorted(lat.get("stages", {}).items()):
            entry[f"stage_{stage}_p99_us"] = float(stats.get("p99_us", 0.0))

    return entry


def read_history(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError as e:
                print(f"bench_history: {path}:{n}: bad entry: {e}",
                      file=sys.stderr)
    return entries


def print_deltas(prev, cur):
    if prev is None:
        print("bench_history: no earlier entry on this host")
    print(f"{'metric':<28} {'previous':>14} {'current':>14} {'delta':>10}")
    for key, _, higher_better in HEADLINES:
        if key not in cur:
            continue
        new = cur[key]
        old = prev.get(key) if prev else None
        if old is None or old == 0:
            print(f"{key:<28} {'-':>14} {new:>14.3f} {'-':>10}")
            continue
        pct = 100.0 * (new - old) / old
        marker = ""
        if abs(pct) >= 2.0:
            improved = (pct > 0) == higher_better
            marker = "  (improved)" if improved else "  (REGRESSED)"
        print(f"{key:<28} {old:>14.3f} {new:>14.3f} {pct:>+9.1f}%{marker}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", default=None,
                    help="directory with the source reports (default: "
                         "<repo>/bench)")
    ap.add_argument("--history", default=None,
                    help="history file (default: <bench-dir>/history.jsonl)")
    ap.add_argument("--label", default="",
                    help="free-form label stored with the entry")
    ap.add_argument("--dry-run", action="store_true",
                    help="print the entry and deltas without appending")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = args.bench_dir or os.path.join(repo_root, "bench")
    history_path = args.history or os.path.join(bench_dir, "history.jsonl")

    entry = collect_entry(bench_dir)
    if len(entry) <= 1:
        print("bench_history: no benchmark reports found; nothing to record",
              file=sys.stderr)
        return 1
    entry["git"] = git_revision(repo_root)
    entry["host"] = host_info()
    if args.label:
        entry["label"] = args.label

    history = read_history(history_path)
    same_host = [e for e in history if e.get("host") == entry["host"]]
    prev = same_host[-1] if same_host else None

    print_deltas(prev, entry)

    if args.dry_run:
        print("bench_history: dry run, history not updated")
        return 0

    with open(history_path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"bench_history: appended entry #{len(history) + 1} "
          f"to {os.path.relpath(history_path, repo_root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
