//===- perfbench/Bench.h - Benchmark binary interfaces ----------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one workload run reports: operation counts, failures, and named
/// metrics with units. main.cpp owns the metric catalogue and prints the
/// result; Workloads.cpp fills it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut; ///< Chrome trace JSON path (trace runs only).
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< First few failure descriptions.
  /// Metric values by name; units come from the catalogue in main.cpp.
  std::map<std::string, double> Metrics;
  std::vector<std::string> Notes; ///< Human-readable lines.

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(What);
  }
};

Outcome runServiceWarm(const RunOptions &O);
Outcome runServiceCold(const RunOptions &O);
Outcome runSuiteTune(const RunOptions &O);
Outcome runNativeTier(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
