//===- service/Cache.h - Sharded content-addressed LRU cache ----*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization substrate of the analysis service: a mutex-striped,
/// byte-budgeted LRU map from stable 64-bit content hashes
/// (support/Hash.h) to immutable, shared analysis artifacts. One
/// ShardedCache instance backs one *tier* (programs with their CFGs,
/// Markov solves, native artifacts, rendered responses); the CacheSet
/// in service/Service.h groups the service's tiers.
///
/// Design constraints, in order:
///
///  1. *Correctness under eviction and concurrency.* Values are handed
///     out as shared_ptr<const T>: an entry evicted while a worker still
///     holds it stays alive until the worker drops it, and entries are
///     immutable after insertion, so cached artifacts can be shared by
///     any number of concurrent requests. A lost race (two workers
///     computing the same key) is benign: artifacts are deterministic
///     functions of their key's content, so whichever insert lands first
///     wins and both values are interchangeable. Eviction can therefore
///     only ever cost time, never change a response byte.
///
///  2. *Sharded, not global.* Keys are striped over N independently
///     locked shards (key % N); the byte budget is split evenly across
///     shards and each shard runs its own LRU list, so eviction never
///     takes a global lock either.
///
///  3. *Observable.* Every get/put/evict bumps both the ambient
///     Telemetry (service.cache.<tier>.{hit,miss,evict} counters and the
///     service.cache.<tier>.bytes gauge) and lock-free internal atomics,
///     so live totals are available for the `stats` request even when no
///     telemetry context is installed.
///
//===----------------------------------------------------------------------===//

#ifndef SERVICE_CACHE_H
#define SERVICE_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace sest::service {

/// Point-in-time totals of one cache tier (summed over shards).
struct CacheTierStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Bytes = 0;   ///< Resident value bytes (approximate, as charged).
  uint64_t Entries = 0; ///< Resident entry count.
};

/// One tier of the memoization cache. Thread-safe; see file comment.
class ShardedCache {
public:
  /// \p Tier names the tier in counters ("cfg", "solve", ...).
  /// \p BudgetBytes caps resident value bytes (0 disables caching:
  /// every get misses and put is a no-op). \p Shards is clamped to >= 1.
  ShardedCache(std::string Tier, size_t BudgetBytes, unsigned Shards = 8);

  ShardedCache(const ShardedCache &) = delete;
  ShardedCache &operator=(const ShardedCache &) = delete;

  /// The value under \p Key, or null on miss. Refreshes LRU recency.
  std::shared_ptr<const void> get(uint64_t Key);

  /// Typed convenience wrapper over get().
  template <typename T> std::shared_ptr<const T> getAs(uint64_t Key) {
    return std::static_pointer_cast<const T>(get(Key));
  }

  /// Inserts \p Value under \p Key, charging \p Bytes against the
  /// budget, then evicts least-recently-used entries until the shard is
  /// within budget again. A key that is already present keeps the
  /// existing value (artifacts are deterministic, so they are equal).
  /// A value larger than a whole shard's budget is not admitted.
  void put(uint64_t Key, std::shared_ptr<const void> Value, size_t Bytes);

  /// Drops every entry (stats counters are kept).
  void clear();

  const std::string &tier() const { return Tier; }
  CacheTierStats stats() const;

private:
  struct Entry {
    std::shared_ptr<const void> Value;
    size_t Bytes = 0;
    std::list<uint64_t>::iterator LruIt; ///< Position in Shard::Lru.
  };

  struct Shard {
    std::mutex Mu;
    std::unordered_map<uint64_t, Entry> Map;
    std::list<uint64_t> Lru; ///< Front = most recent, back = next victim.
    size_t Bytes = 0;
  };

  Shard &shardFor(uint64_t Key) { return Shards_[Key % Shards_.size()]; }

  std::string Tier;
  std::string CounterHit, CounterMiss, CounterEvict, GaugeBytes;
  size_t ShardBudget; ///< Per-shard byte budget.
  std::vector<Shard> Shards_;

  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Bytes{0},
      Entries{0};
};

} // namespace sest::service

#endif // SERVICE_CACHE_H
