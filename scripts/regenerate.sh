#!/usr/bin/env bash
# Regenerates every reproduced table and figure plus the test evidence,
# and refreshes the checked-in baselines (bench/*.json; each declares
# the gates scripts/check_gates.py evaluates). Baselines must come from
# a Release build:
# wall times from an unoptimized build are misleading, and mixing build
# types makes the perf baseline incomparable — so this script configures
# Release and fails loudly if the build directory disagrees.
# Usage: scripts/regenerate.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "regenerate.sh: FATAL: '$BUILD' is configured as" \
    "'${BUILD_TYPE:-<unset>}', not Release." >&2
  echo "regenerate.sh: baselines must be regenerated from a Release" \
    "build; delete '$BUILD' (or pass a fresh build dir) and re-run." >&2
  exit 1
fi

cmake --build "$BUILD"

ctest --test-dir "$BUILD" -j"$(nproc)" 2>&1 | tee test_output.txt

# Each bench runs once; the ones with a checked-in baseline write it
# from that run.
baseline_args() {
  case "$1" in
    # Wall-clock: expect the numbers to move between machines; their
    # gates are advisory with 3x slack.
    bench_interp) echo --tiers-json bench/interp_tiers.json ;;
    bench_pipeline_latency) echo --json bench/pipeline_latency.json ;;
    bench_service) echo --json bench/service_throughput.json ;;
  esac
}

for b in "$BUILD"/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "===== $(basename "$b") ====="
  # shellcheck disable=SC2046
  "$b" $(baseline_args "$(basename "$b")")
  echo
done 2>&1 | tee bench_output.txt

# One baseline comes from a narrower run than the loop's, as in CI: the
# solver / pipeline scaling benchmarks only.
"$BUILD"/bench/bench_analysis_time --benchmark_filter='solver|pipeline' \
  --json bench/analysis_time.json

# One suite profiling pass refreshes three baselines: the run report
# (per-program compile time, per-input wall time and resource usage;
# step counts are hard gates), the accuracy baseline (per-entity
# divergence attribution; see docs/OBSERVABILITY.md) and the optimizer
# scoring (docs/OPTIMIZATION.md). Then the autotuner's full-suite search
# (docs/TUNING.md). The optimizer and autotuner reports have no
# wall-clock fields, so they are diff-clean on any machine unless
# decisions actually changed.
"$BUILD"/tools/sestc --suite \
  --report bench/suite_report.json \
  --accuracy-report bench/accuracy_report.json \
  --optimize all --opt-report bench/opt_report.json
"$BUILD"/tools/sestune --budget 24 --report bench/tune_report.json

# Record the refreshed headline numbers (service rps, solver speedup,
# stage p99s) in the bench history, with deltas vs the last entry from
# the same host (see scripts/bench_history.py; history is
# bench/history.jsonl).
python3 "$ROOT"/scripts/bench_history.py
