// Memoized golden (fault-free) runs, keyed by (app label, nranks).
//
// A study profiles the same deployment repeatedly — every serial sweep
// point re-profiles nranks=1, and the small-scale, parallel-unique and
// measured-large campaigns each re-profile their own scale. Profiling is
// deterministic in (app, nranks), so one golden run per key serves every
// campaign of the study. The cache is single-flight: concurrent requests
// for one key block on a single profiling run instead of duplicating it.
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "harness/runner.hpp"

namespace resilience::harness {

class Executor;
class GoldenStore;

class GoldenCache {
 public:
  GoldenCache() = default;
  /// A cache backed by an on-disk store: in-process misses consult the
  /// store before profiling (and persist what they profile), so repeated
  /// invocations — and the shard worker processes of one campaign — share
  /// one golden pre-pass. The store must outlive the cache.
  explicit GoldenCache(GoldenStore* store) : store_(store) {}

  /// Return the golden run of (app.label(), nranks), profiling it on a
  /// miss. With a non-null `executor` the profiling run is queued on it
  /// like any trial, so golden runs share the pool's concurrency bound
  /// with campaign trials. Profiling errors propagate to every waiter of
  /// the key; the failed entry is evicted so a later call can retry.
  std::shared_ptr<const GoldenRun> get_or_profile(const apps::App& app,
                                                  int nranks,
                                                  Executor* executor = nullptr);

  /// Requests served from an existing (possibly in-flight) entry.
  [[nodiscard]] std::size_t hits() const;
  /// Requests that had to profile.
  [[nodiscard]] std::size_t misses() const;
  /// Hits that found the entry still in flight and had to block on the
  /// leader's single-flight profiling run.
  [[nodiscard]] std::size_t waits() const;

 private:
  using Key = std::pair<std::string, int>;
  using Future = std::shared_future<std::shared_ptr<const GoldenRun>>;

  GoldenStore* store_ = nullptr;
  mutable std::mutex mu_;
  std::map<Key, Future> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t waits_ = 0;
};

}  // namespace resilience::harness
