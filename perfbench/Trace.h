//===- perfbench/Trace.h - Benchmark-side span recorder ---------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each
/// layer's public entry points. Spans live in memory and are written at
/// exit as Chrome trace-event JSON (opens in Perfetto / about:tracing).
///
/// A span's layer is its name up to the first '.', so
/// "lang.parseAndAnalyze" belongs to "lang". Every span is opened and
/// closed on the benchmark's main thread, so spans nest strictly and the
/// self times of all spans add up to the root span's duration exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1; ///< Index of the enclosing span, -1 for a root.
  uint64_t Id = 0; ///< Request, batch or program id.
};

/// Per-name and per-layer totals of a finished trace.
struct TraceSummary {
  std::map<std::string, double> TotalMsByName;
  std::map<std::string, uint64_t> CountByName;
  std::map<std::string, double> SelfMsByLayer;
  double RootMs = 0.0; ///< Summed duration of root spans.
};

class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string Name, uint64_t Id);
  void end(int Index);

  TraceSummary summarize() const;
  size_t size() const { return Spans.size(); }

  /// Writes the spans as Chrome trace-event JSON. False on I/O error.
  bool writeChromeJson(const std::string &Path) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Origin)
        .count();
  }

  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span; a null tracer records nothing, so timed (untraced) runs
/// share the code path at the cost of one branch.
class Scope {
public:
  Scope(Tracer *T, std::string Name, uint64_t Id = 0)
      : T(T), Index(T ? T->begin(std::move(Name), Id) : -1) {}
  ~Scope() {
    if (T)
      T->end(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
