// Structured telemetry: a low-overhead metrics registry and a trace layer
// (DESIGN.md §10).
//
// The four execution layers (simmpi, fsefi, harness, core) report named
// monotonic counters and histograms into the *metric scope stack* of the
// current thread, and emit spans/events into the process-wide trace
// session. Both facilities are execution-policy-only: campaign and study
// results are bit-identical with telemetry on, off, or at any verbosity,
// because instrumentation only ever observes — it never feeds back into
// control flow.
//
// Cost model:
//  - Disabled metrics cost one branch on a cached atomic per call site
//    (`metrics_enabled()`), and the instrumented floating-point per-op
//    path carries no telemetry calls at all (bench_micro_substrate's
//    telemetry legs gate this at <= 5% on Real-axpy).
//  - Enabled counters are lock-free: each (scope, thread) pair owns a
//    private shard of plain relaxed-atomic slots — single-writer, so an
//    increment is a load+store, no RMW, no contention — merged under the
//    scope's mutex only when a campaign snapshots at the end.
//  - Tracing is off until a TraceSession starts (one branch on a cached
//    atomic); when on, events pay a timestamp and one short critical
//    section in the sink.
//
// Scoping: a MetricScope delimits an accounting domain (one campaign, one
// study). Scopes form a rollup chain — a campaign scope created with the
// study scope as parent folds its totals into the parent when it dies —
// and the *stack* of active scopes is thread-local, propagated across the
// simmpi job launch onto rank fibers via AdoptScopeStack so substrate
// counters (mailbox waits, pool reuse) land in the campaign that caused
// them.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace resilience::telemetry {

// ---- counter & histogram vocabulary ---------------------------------------

/// Every named monotonic counter, one id per name so the hot path indexes
/// an array instead of hashing strings. Grouped by the layer that emits.
enum class Counter : std::uint16_t {
  // simmpi — simulated MPI substrate
  SimmpiJobs,             ///< Runtime::run invocations
  SimmpiBufferAllocs,     ///< envelope payloads freshly heap-allocated
  SimmpiBufferReuses,     ///< envelope payloads recycled from freelists
  SimmpiMailboxWaits,     ///< receives that blocked before a match arrived
  SimmpiFusedCollectives, ///< fused collective combines executed
  // fsefi — fault injector
  FsefiDispatchFastIdle,  ///< contexts armed/reset into the FastIdle state
  FsefiDispatchFastLive,  ///< contexts armed/reset into the FastLive state
  FsefiDispatchReference, ///< contexts armed/reset onto the reference path
  FsefiCountdownRefills,  ///< cold on_event firings (countdown recomputes)
  FsefiInjections,        ///< bit flips actually performed
  FsefiBudgetThrows,      ///< hang-budget aborts thrown
  // harness — campaign execution
  HarnessTrials,             ///< fault-injection trials completed
  HarnessGoldenProfiles,     ///< golden (fault-free) profiling runs
  HarnessGoldenHits,         ///< golden-cache requests served from an entry
  HarnessGoldenMisses,       ///< golden-cache requests that had to profile
  HarnessGoldenWaits,        ///< hits that blocked on an in-flight leader
  HarnessCheckpointRestores, ///< trials resumed from a stored boundary
  HarnessEarlyExits,         ///< trials pruned by digest reconvergence
  HarnessDeadlockAborts,     ///< trials ended by the deadlock detector
  HarnessHangAborts,         ///< trials ended by the op-budget hang guard
  HarnessCampaigns,          ///< campaigns run
  CampaignTrialsSaved,       ///< requested-minus-executed trials of
                             ///< adaptive campaigns (early-stopping win)
  CampaignStrata,            ///< non-empty strata sampled by adaptive
                             ///< campaigns (1 per unstratified campaign)
  // core — study pipeline
  CoreStudies,            ///< run_study invocations
  CoreStudyPhases,        ///< study phases executed
  // shard — multi-process campaign sharding + on-disk golden store
  ShardUnitsDispatched,   ///< work units sent to worker processes
  ShardWorkerRestarts,    ///< workers respawned after EOF/timeout
  GoldenStoreHits,        ///< golden runs served from the on-disk store
  GoldenStoreMisses,      ///< store lookups that found no usable file
  GoldenStoreLockTakeovers,  ///< stale fill locks broken after the poll
                             ///< budget (a crashed filler's leftovers)
  GoldenStoreRefills,     ///< corrupt/truncated store files unlinked so
                          ///< the next fill starts clean
  // scenario — fault-scenario catalog injection mechanisms
  ScenarioPayloadFlips,   ///< message-payload bit flips performed
  ScenarioStateFlips,     ///< resident-state bit flips performed
  ScenarioRankCrashes,    ///< fail-stop rank deaths injected
  kCount
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Histograms: fixed 64-bucket layouts so shards stay POD and merging is a
/// plain sum. The bucketing rule is per-histogram (see bucket_of).
enum class Histogram : std::uint16_t {
  HarnessTrialOps,           ///< log2 buckets of per-trial total dynamic ops
  HarnessContaminatedRanks,  ///< linear buckets of ranks contaminated/trial
  kCount
};
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);
inline constexpr std::size_t kHistogramBuckets = 64;

/// Stable dotted name of a counter/histogram ("harness.trials").
[[nodiscard]] const char* name(Counter c) noexcept;
[[nodiscard]] const char* name(Histogram h) noexcept;

/// A counter is *logical* when its value is a deterministic function of
/// (app, configuration, seed) — independent of scheduling, timing, and
/// worker count. The determinism test suite compares exactly the logical
/// subset; timing-born counters (mailbox waits, buffer allocs, cache
/// waits) are diagnostics only.
[[nodiscard]] bool is_logical(Counter c) noexcept;

/// Bucket index a recorded value falls into.
[[nodiscard]] constexpr std::size_t bucket_of(Histogram h,
                                              std::uint64_t value) noexcept {
  if (h == Histogram::HarnessTrialOps) {
    // log2 buckets: 0 -> 0, otherwise bit_width (1..64) clamped.
    const auto w = static_cast<std::size_t>(std::bit_width(value));
    return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
  }
  return value < kHistogramBuckets ? static_cast<std::size_t>(value)
                                   : kHistogramBuckets - 1;
}

struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (auto b : buckets) n += b;
    return n;
  }
  friend bool operator==(const HistogramData&,
                         const HistogramData&) = default;
};

/// A merged, immutable view of one scope's counters — the value type
/// campaign/study results carry. Plain arrays: cheap to copy, never part
/// of any serialized result schema.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<HistogramData, kHistogramCount> histograms{};

  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Lookup by dotted name; 0 for unknown names.
  [[nodiscard]] std::uint64_t value(std::string_view counter_name) const noexcept;
  [[nodiscard]] const HistogramData& histogram(Histogram h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] bool empty() const noexcept;
  void add(const MetricsSnapshot& other) noexcept;
  /// Equality over the logical counters and all histograms (see
  /// is_logical) — the determinism contract.
  [[nodiscard]] bool logical_equal(const MetricsSnapshot& other) const noexcept;
};

// ---- enablement ------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_metrics_enabled;  // default true
extern std::atomic<bool> g_trace_enabled;    // true while a session runs
}  // namespace detail

/// Metrics collection switch (default on — counters are cheap and feed the
/// campaign/study diagnostic fields). The disabled path is one branch on
/// this cached atomic at every call site.
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled) noexcept;

/// True while a TraceSession is active.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

// ---- metric scopes ---------------------------------------------------------

class MetricScope;

namespace detail {

/// One (scope, thread) counter bank. Single-writer: only the owning thread
/// increments, so the increment is a relaxed load+store (no RMW); readers
/// (snapshot) see a consistent-enough view once the writers quiesced.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
             kHistogramCount>
      histograms{};

  void add(Counter c, std::uint64_t n) noexcept {
    auto& slot = counters[static_cast<std::size_t>(c)];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
  void record(Histogram h, std::uint64_t value) noexcept {
    auto& slot =
        histograms[static_cast<std::size_t>(h)][bucket_of(h, value)];
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
};

struct ScopeNode {
  Shard* shard = nullptr;
  ScopeNode* parent = nullptr;
};

// constinit: guarantees constant initialization so cross-TU access does
// not route through the TLS init wrapper (which UBSan flags as a
// potential null reference and which would put a guard check on the
// metrics hot path).
extern thread_local constinit ScopeNode* tl_scope_top;

}  // namespace detail

/// An accounting domain: one campaign, one study. Counts recorded while a
/// ScopeGuard for this scope is the innermost on the thread's stack land
/// in this scope; when the scope dies it folds its totals into `parent`
/// (if any), so campaign scopes roll up into their study scope exactly
/// once.
class MetricScope {
 public:
  explicit MetricScope(MetricScope* parent = nullptr) : parent_(parent) {}
  ~MetricScope();
  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

  /// Merge all shards. Call only when writers have quiesced (after the
  /// executor/job joins) for exact totals.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The calling thread's shard in this scope, created on first use.
  [[nodiscard]] detail::Shard* shard_for_current_lane();

  /// Fold an externally produced snapshot — a shard worker process's
  /// counters arriving over the wire — into this scope, attributed to the
  /// calling lane. Unlike count()/record() this adds raw histogram
  /// buckets, so a worker's observations keep their exact distribution.
  void absorb(const MetricsSnapshot& snapshot) noexcept;

 private:
  void fold(const MetricsSnapshot& child) noexcept;

  MetricScope* parent_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<detail::Shard>> shards_;
  std::unordered_map<std::uint64_t, detail::Shard*> by_lane_;
};

/// RAII: makes `scope` the innermost accounting domain of this thread.
class ScopeGuard {
 public:
  explicit ScopeGuard(MetricScope* scope) {
    if (scope == nullptr) return;
    node_.shard = scope->shard_for_current_lane();
    node_.parent = detail::tl_scope_top;
    // Storing a stack address in a thread-local is the point of the RAII
    // guard: the destructor pops it before the node dies.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
#endif
    detail::tl_scope_top = &node_;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    pushed_ = true;
  }
  ~ScopeGuard() {
    if (pushed_) detail::tl_scope_top = node_.parent;
  }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  detail::ScopeNode node_;
  bool pushed_ = false;
};

/// The scope stack of the calling thread, as an opaque handle a job
/// launcher can capture and re-establish on its rank fibers. The nodes
/// live on the capturing thread's stack: valid only while that thread
/// runs the job.
struct ScopeStackHandle {
  detail::ScopeNode* head = nullptr;
};
[[nodiscard]] inline ScopeStackHandle current_scope_stack() noexcept {
  return {detail::tl_scope_top};
}

/// Re-establish a captured scope stack for the rest of this scope (a
/// rank fiber of a simmpi job starts with an empty one). Use it only on
/// the capturing thread: the captured nodes point at that thread's
/// shards, which stay single-writer because the capturing thread's
/// fibers never run concurrently.
class AdoptScopeStack {
 public:
  explicit AdoptScopeStack(ScopeStackHandle handle) noexcept
      : saved_(detail::tl_scope_top) {
    detail::tl_scope_top = handle.head;
  }
  ~AdoptScopeStack() { detail::tl_scope_top = saved_; }
  AdoptScopeStack(const AdoptScopeStack&) = delete;
  AdoptScopeStack& operator=(const AdoptScopeStack&) = delete;

 private:
  detail::ScopeNode* saved_;
};

// ---- recording -------------------------------------------------------------

/// Add `n` to counter `c` in this thread's innermost scope (a no-op with
/// no scope active). Ancestor scopes receive the count exactly once,
/// through the fold-at-destruction chain — recording into every stacked
/// scope here would double counts wherever a campaign guard sits above
/// its study's guard on the same thread. One branch when metrics are
/// disabled; a lock-free shard add when enabled.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (!metrics_enabled()) return;
  if (detail::ScopeNode* top = detail::tl_scope_top; top != nullptr) {
    top->shard->add(c, n);
  }
}

/// Record one histogram observation in this thread's innermost scope
/// (rolled up to ancestors at scope destruction, like count()).
inline void record(Histogram h, std::uint64_t value) noexcept {
  if (!metrics_enabled()) return;
  if (detail::ScopeNode* top = detail::tl_scope_top; top != nullptr) {
    top->shard->record(h, value);
  }
}

// ---- tracing ---------------------------------------------------------------

struct TraceEvent {
  enum class Type : std::uint8_t { SpanBegin, SpanEnd, Instant };
  const char* category = "";       ///< static string ("harness", "simmpi", ...)
  const char* name = "";           ///< static string ("campaign", "trial", ...)
  Type type = Type::Instant;
  std::uint32_t tid = 0;           ///< small per-thread id, stable per thread
  std::uint64_t ts_ns = 0;         ///< nanoseconds since session start
  const char* arg_name = nullptr;  ///< static string; nullptr = no argument
  std::uint64_t arg = 0;
};

/// Where trace events go. consume() runs under the session lock — sinks
/// need no synchronization of their own. flush() is called once at stop.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Process-wide trace session. start() flips the cached trace_enabled()
/// atomic; every span/event recorded anywhere in the process streams into
/// the sink until stop() flushes and tears it down.
class TraceSession {
 public:
  static void start(std::shared_ptr<TraceSink> sink);
  static void stop();
};

namespace detail {
/// Out-of-line emit: timestamps, assigns the thread id, forwards to the
/// session sink. Call sites check trace_enabled() first so the disabled
/// path never pays the call.
void trace_emit(const char* category, const char* event_name,
                TraceEvent::Type type, const char* arg_name,
                std::uint64_t arg) noexcept;
}  // namespace detail

/// Emit an instant event ("injection", "early_exit", ...).
inline void trace_instant(const char* category, const char* event_name,
                          const char* arg_name = nullptr,
                          std::uint64_t arg = 0) noexcept {
  if (!trace_enabled()) return;
  detail::trace_emit(category, event_name, TraceEvent::Type::Instant,
                     arg_name, arg);
}

/// RAII span over a phase/campaign/trial. Arms at construction: a session
/// starting mid-span contributes no begin, and the destructor stays
/// silent, so sinks always see balanced begin/end pairs.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* span_name,
            const char* arg_name = nullptr, std::uint64_t arg = 0) noexcept
      : category_(category), name_(span_name) {
    if (!trace_enabled()) return;
    armed_ = true;
    detail::trace_emit(category_, name_, TraceEvent::Type::SpanBegin,
                       arg_name, arg);
  }
  ~TraceSpan() {
    if (armed_) {
      detail::trace_emit(category_, name_, TraceEvent::Type::SpanEnd,
                         nullptr, 0);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* category_;
  const char* name_;
  bool armed_ = false;
};

}  // namespace resilience::telemetry
