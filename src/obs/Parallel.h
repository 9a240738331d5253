//===- obs/Parallel.h - The one worker pool ---------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor, the single worker pool behind every parallel fan-out
/// (per-function estimation, suite profiling and accuracy scoring, the
/// opt and tune reports, and the service's request batches).
///
/// Workers pull task indices from a shared counter; every task runs
/// under its own TaskCapture contexts on the trace track
/// `<prefix>-<k>` of its worker, and the contexts merge back into the
/// caller's in index order. Counters, histograms, the phase tree, and
/// the decision log are therefore identical for every job count.
///
/// Two rules keep the pool cheap and bounded:
///
///  - With one worker and no Keep hook, tasks run inline on the caller
///    in the ambient contexts: no thread, no allocation.
///  - A parallelFor started on a pool worker runs inline on that worker
///    (on its track). Parallelism lives in the outermost pool, so
///    nested fan-outs never oversubscribe the machine.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_PARALLEL_H
#define OBS_PARALLEL_H

#include "obs/EventLog.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace sest::obs {

namespace detail {
/// True on threads spawned by parallelFor.
inline thread_local bool InPoolWorker = false;
} // namespace detail

/// A `--jobs` style count: 0 means one worker per hardware thread.
inline unsigned resolveJobs(unsigned Jobs) {
  return Jobs ? Jobs : std::max(1u, std::thread::hardware_concurrency());
}

/// Workers parallelFor(\p Jobs, \p N, ...) will run: at least 1, at
/// most \p N, and 1 when called from a pool worker.
inline size_t poolWorkers(unsigned Jobs, size_t N) {
  if (detail::InPoolWorker)
    return 1;
  return std::max<size_t>(1, std::min<size_t>(resolveJobs(Jobs), N));
}

/// Runs \p Task(I) for every I in [0, N) on poolWorkers(Jobs, N)
/// threads and returns once all have finished. \p Keep, when given, is
/// called on the calling thread in index order before task I's
/// contexts merge; returning false discards that task's telemetry and
/// events. With \p Keep the tasks are captured even on one worker, so
/// the discard works the same at every job count.
template <typename TaskFn, typename KeepFn = std::nullptr_t>
void parallelFor(unsigned Jobs, size_t N, std::string_view TrackPrefix,
                 TaskFn &&Task, KeepFn &&Keep = nullptr) {
  constexpr bool HasKeep =
      !std::is_same_v<std::decay_t<KeepFn>, std::nullptr_t>;
  const size_t Workers = poolWorkers(Jobs, N);
  if (Workers == 1 && !HasKeep) {
    for (size_t I = 0; I < N; ++I)
      Task(I);
    return;
  }

  TaskCapture Cap;
  std::vector<TaskCapture::Slot> Slots(N);
  if (Workers == 1) {
    // Capture on the caller's own track (0 at top level).
    Telemetry *T = Telemetry::active();
    const uint32_t Track = T ? T->track() : 0;
    for (size_t I = 0; I < N; ++I)
      Cap.run(Slots[I], Track, {}, [&] { Task(I); });
  } else {
    std::atomic<size_t> Next{0};
    auto Worker = [&](uint32_t Track) {
      detail::InPoolWorker = true;
      const std::string Name =
          std::string(TrackPrefix) + "-" + std::to_string(Track);
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Cap.run(Slots[I], Track, Name, [&] { Task(I); });
    };
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (uint32_t K = 1; K <= Workers; ++K)
      Pool.emplace_back(Worker, K);
    for (std::thread &W : Pool)
      W.join();
  }
  for (size_t I = 0; I < N; ++I) {
    if constexpr (HasKeep)
      if (!Keep(I))
        continue;
    Cap.merge(Slots[I]);
  }
}

} // namespace sest::obs

#endif // OBS_PARALLEL_H
