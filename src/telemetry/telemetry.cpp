#include "telemetry/telemetry.hpp"

#include <chrono>
#include <cstring>

#include "util/fiber_tls.hpp"

namespace resilience::telemetry {

namespace {

constexpr const char* kCounterNames[kCounterCount] = {
    "simmpi.jobs",
    "simmpi.buffer_allocs",
    "simmpi.buffer_reuses",
    "simmpi.mailbox_waits",
    "simmpi.fused_collectives",
    "fsefi.dispatch_fast_idle",
    "fsefi.dispatch_fast_live",
    "fsefi.dispatch_reference",
    "fsefi.countdown_refills",
    "fsefi.injections",
    "fsefi.budget_throws",
    "harness.trials",
    "harness.golden_profiles",
    "harness.golden_hits",
    "harness.golden_misses",
    "harness.golden_waits",
    "harness.checkpoint_restores",
    "harness.early_exits",
    "harness.deadlock_aborts",
    "harness.hang_aborts",
    "harness.campaigns",
    "campaign.trials_saved",
    "campaign.strata",
    "core.studies",
    "core.study_phases",
    "shard.units_dispatched",
    "shard.worker_restarts",
    "golden_store.hits",
    "golden_store.misses",
    "golden_store.lock_takeovers",
    "golden_store.refills",
    "scenario.payload_flips",
    "scenario.state_flips",
    "scenario.rank_crashes",
};

constexpr const char* kHistogramNames[kHistogramCount] = {
    "harness.trial_ops",
    "harness.contaminated_ranks",
};

// Counters whose values depend on scheduling/timing rather than on
// (app, configuration, seed). Everything else is logical: reproducible
// run to run and independent of worker count.
//
// The per-op fsefi stream counters (refills, injections, budget throws)
// and the fused collective combines are deterministic on a healthy rank,
// but in an aborted job the *surviving* ranks wind down at whichever
// blocking call first observes the abort token — a race — so their tails
// vary run to run. Only arm-time and whole-trial counters stay exact.
constexpr bool kTimingBorn[kCounterCount] = {
    /*SimmpiJobs*/ false,
    /*SimmpiBufferAllocs*/ true,   // freelist warmth is timing-dependent
    /*SimmpiBufferReuses*/ true,
    /*SimmpiMailboxWaits*/ true,   // whether a recv blocks is a race
    /*SimmpiFusedCollectives*/ true,  // zero with fusion off; abort tails vary
    /*FsefiDispatchFastIdle*/ false,
    /*FsefiDispatchFastLive*/ false,
    /*FsefiDispatchReference*/ false,
    /*FsefiCountdownRefills*/ true,   // abort winding-down tails vary
    /*FsefiInjections*/ true,         // a racing abort can preempt a flip
    /*FsefiBudgetThrows*/ true,       // ditto for the budget guard
    /*HarnessTrials*/ false,
    /*HarnessGoldenProfiles*/ false,  // single-flight: one per distinct key
    /*HarnessGoldenHits*/ true,    // hit/miss/wait split races between
    /*HarnessGoldenMisses*/ true,  // overlapping study phases
    /*HarnessGoldenWaits*/ true,
    /*HarnessCheckpointRestores*/ false,
    /*HarnessEarlyExits*/ false,
    /*HarnessDeadlockAborts*/ true,  // diagnostic only
    /*HarnessHangAborts*/ false,     // op-budget guard is deterministic
    /*HarnessCampaigns*/ false,
    // The adaptive engine's stop decisions are evaluated at deterministic
    // batch boundaries on merged tallies, so both adaptive counters are a
    // pure function of (app, configuration, seed) — logical, and part of
    // the determinism contract. With adaptive off they are zero on both
    // sides of every diff, so adaptive-off comparisons stay clean.
    /*CampaignTrialsSaved*/ false,
    /*CampaignStrata*/ false,
    /*CoreStudies*/ false,
    /*CoreStudyPhases*/ false,
    // Sharding is an execution policy: unit and restart counts depend on
    // the shard count and on crash/respawn timing, and store hit/miss
    // splits depend on what earlier invocations left on disk — none of it
    // is a function of (app, configuration, seed), so a sharded run stays
    // logical_equal to the single-process run.
    /*ShardUnitsDispatched*/ true,
    /*ShardWorkerRestarts*/ true,
    /*GoldenStoreHits*/ true,
    /*GoldenStoreMisses*/ true,
    /*GoldenStoreLockTakeovers*/ true,
    /*GoldenStoreRefills*/ true,
    // Scenario injections are deterministic per trial, but — like
    // FsefiInjections — a racing abort (hang budget, crash teardown) can
    // preempt a pending flip on a surviving rank, so the tails vary.
    /*ScenarioPayloadFlips*/ true,
    /*ScenarioStateFlips*/ true,
    /*ScenarioRankCrashes*/ true,
};

}  // namespace

const char* name(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* name(Histogram h) noexcept {
  return kHistogramNames[static_cast<std::size_t>(h)];
}

bool is_logical(Counter c) noexcept {
  return !kTimingBorn[static_cast<std::size_t>(c)];
}

std::uint64_t MetricsSnapshot::value(std::string_view counter_name) const
    noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counter_name == kCounterNames[i]) return counters[i];
  }
  return 0;
}

bool MetricsSnapshot::empty() const noexcept {
  for (auto v : counters) {
    if (v != 0) return false;
  }
  for (const auto& h : histograms) {
    if (h.total() != 0) return false;
  }
  return true;
}

void MetricsSnapshot::add(const MetricsSnapshot& other) noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      histograms[i].buckets[b] += other.histograms[i].buckets[b];
    }
  }
}

bool MetricsSnapshot::logical_equal(const MetricsSnapshot& other) const
    noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (is_logical(static_cast<Counter>(i)) &&
        counters[i] != other.counters[i]) {
      return false;
    }
  }
  return histograms == other.histograms;
}

// ---- enablement ------------------------------------------------------------

namespace detail {
std::atomic<bool> g_metrics_enabled{true};
std::atomic<bool> g_trace_enabled{false};
thread_local constinit ScopeNode* tl_scope_top = nullptr;
}  // namespace detail

namespace {

// A *lane* is the unit of shard ownership: a small process-unique id a
// thread allocates on first use and keeps forever. Every fiber of a simmpi
// job runs on its launching thread and so shares that thread's lane.
std::atomic<std::uint64_t> g_next_lane{1};
thread_local constinit std::uint64_t tl_lane = 0;  // 0 = not yet assigned

std::uint64_t current_lane() noexcept {
  if (tl_lane == 0) {
    tl_lane = g_next_lane.fetch_add(1, std::memory_order_relaxed);
  }
  return tl_lane;
}

// The scope stack is fiber-local: each rank fiber adopts the launcher's
// stack (AdoptScopeStack in Runtime::run), and any node it pushes lives
// on the fiber's own stack, so swapping the head pointer on every fiber
// switch is sufficient. The lane is deliberately *not* fiber-local: rank
// fibers write their launching thread's shards, which stay single-writer
// because a job's fibers never leave that thread.
[[maybe_unused]] const std::size_t g_scope_stack_slot =
    util::FiberTlsRegistry::add({
        []() noexcept -> void* { return detail::tl_scope_top; },
        [](void* v) noexcept {
          detail::tl_scope_top = static_cast<detail::ScopeNode*>(v);
        },
    });

}  // namespace

void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---- metric scopes ---------------------------------------------------------

MetricScope::~MetricScope() {
  if (parent_ == nullptr) return;
  const MetricsSnapshot totals = snapshot();
  if (!totals.empty()) parent_->fold(totals);
}

MetricsSnapshot MetricScope::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out.counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kHistogramCount; ++i) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.histograms[i].buckets[b] +=
            shard->histograms[i][b].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

detail::Shard* MetricScope::shard_for_current_lane() {
  const std::uint64_t lane = current_lane();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_lane_.find(lane);
  if (it != by_lane_.end()) return it->second;
  shards_.push_back(std::make_unique<detail::Shard>());
  detail::Shard* shard = shards_.back().get();
  by_lane_.emplace(lane, shard);
  return shard;
}

void MetricScope::absorb(const MetricsSnapshot& snapshot) noexcept {
  fold(snapshot);
}

void MetricScope::fold(const MetricsSnapshot& child) noexcept {
  detail::Shard* shard = shard_for_current_lane();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (child.counters[i] != 0) {
      shard->add(static_cast<Counter>(i), child.counters[i]);
    }
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t n = child.histograms[i].buckets[b];
      if (n != 0) {
        auto& slot = shard->histograms[i][b];
        slot.store(slot.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
      }
    }
  }
}

// ---- tracing ---------------------------------------------------------------

namespace {

struct TraceState {
  std::mutex mu;
  std::shared_ptr<TraceSink> sink;
  std::chrono::steady_clock::time_point epoch;
  std::atomic<std::uint32_t> next_tid{1};
};

TraceState& trace_state() {
  static TraceState state;
  return state;
}

std::uint32_t current_tid() {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) {
    tid = trace_state().next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return tid;
}

}  // namespace

void TraceSession::start(std::shared_ptr<TraceSink> sink) {
  TraceState& state = trace_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.sink = std::move(sink);
  state.epoch = std::chrono::steady_clock::now();
  detail::g_trace_enabled.store(state.sink != nullptr,
                                std::memory_order_relaxed);
}

void TraceSession::stop() {
  TraceState& state = trace_state();
  std::lock_guard<std::mutex> lock(state.mu);
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
  if (state.sink) {
    state.sink->flush();
    state.sink.reset();
  }
}

namespace detail {

void trace_emit(const char* category, const char* event_name,
                TraceEvent::Type type, const char* arg_name,
                std::uint64_t arg) noexcept {
  TraceState& state = trace_state();
  TraceEvent event;
  event.category = category;
  event.name = event_name;
  event.type = type;
  event.tid = current_tid();
  event.arg_name = arg_name;
  event.arg = arg;
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.sink) return;  // stopped between the check and here
  event.ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state.epoch)
          .count());
  state.sink->consume(event);
}

}  // namespace detail

}  // namespace resilience::telemetry
