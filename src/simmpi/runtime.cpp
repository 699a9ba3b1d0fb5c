#include "simmpi/runtime.hpp"

#include <atomic>
#include <exception>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"

namespace resilience::simmpi {

namespace detail {
namespace {

// Programmatic override: 0 = follow RuntimeOptions. The options value is
// latched on first use (same latching caveat as every set_*_enabled
// pattern in this repo — documented in util/options.hpp).
std::atomic<std::size_t> g_stack_kb_override{0};

}  // namespace

std::size_t resolved_fiber_stack_bytes() noexcept {
  std::size_t kb = g_stack_kb_override.load(std::memory_order_relaxed);
  if (kb == 0) {
    static const std::size_t from_options =
        util::RuntimeOptions::global().fiber_stack_kb;
    kb = from_options;
  }
  return kb * 1024;
}

void set_fiber_stack_kb(std::size_t kb) noexcept {
  g_stack_kb_override.store(kb, std::memory_order_relaxed);
}

void set_scheduler_workers(int /*workers*/) noexcept {}

}  // namespace detail

namespace {

/// One job from launch to teardown; every allocation it makes is freed by
/// the time it returns.
RunResult run_job(int nranks, const std::function<void(Comm&)>& body,
                  const RunOptions& options) {
  // Declared before the job state, which points at it.
  std::optional<FiberScheduler> sched;
  if (nranks > 1) sched.emplace(nranks, detail::resolved_fiber_stack_bytes());
  detail::JobState job(nranks, sched ? &*sched : nullptr);

  RunResult result;
  result.ok = true;

  auto record_failure = [&](int rank, const char* what, bool deadlock) {
    // Keep the first root cause; ranks that die with AbortError are
    // collateral damage of an already-recorded failure.
    if (result.ok) {
      result.ok = false;
      result.aborted = true;
      result.deadlocked = deadlock;
      result.failed_rank = rank;
      result.error = what;
    }
  };

  // Rank fibers start with empty thread-local banks; re-establish the
  // launching thread's metric-scope stack on each so substrate counters
  // land in the campaign that caused them. The handle stays valid because
  // the launching thread runs the whole job.
  const telemetry::ScopeStackHandle scopes = telemetry::current_scope_stack();

  auto rank_main = [&](int rank) {
    telemetry::AdoptScopeStack adopt(scopes);
    Comm comm(&job, rank, nranks);
    if (options.on_rank_start) options.on_rank_start(rank);
    try {
      body(comm);
    } catch (const AbortError&) {
      // Torn down because another rank failed first; nothing to record.
    } catch (const DeadlockError& e) {
      record_failure(rank, e.what(), /*deadlock=*/true);
      job.trigger_abort();
    } catch (const std::exception& e) {
      record_failure(rank, e.what(), /*deadlock=*/false);
      job.trigger_abort();
    } catch (...) {
      record_failure(rank, "unknown exception", /*deadlock=*/false);
      job.trigger_abort();
    }
    if (options.on_rank_exit) options.on_rank_exit(rank);
  };

  if (sched) {
    sched->run(rank_main);
  } else {
    rank_main(0);
  }
  result.messages_sent = job.messages_sent;
  result.bytes_sent = job.bytes_sent;
  const BufferPool::Stats pool = job.pool_stats();
  result.pool_allocs = pool.allocs;
  result.pool_reuses = pool.reuses;
  telemetry::count(telemetry::Counter::SimmpiJobs);
  if (pool.allocs != 0) {
    telemetry::count(telemetry::Counter::SimmpiBufferAllocs, pool.allocs);
  }
  if (pool.reuses != 0) {
    telemetry::count(telemetry::Counter::SimmpiBufferReuses, pool.reuses);
  }
  return result;
}

}  // namespace

RunResult Runtime::run(int nranks, const std::function<void(Comm&)>& body,
                       const RunOptions& options) {
  if (nranks < 1) throw UsageError("Runtime::run: nranks must be >= 1");
  RunResult result = run_job(nranks, body, options);
#if defined(__GLIBC__)
  // Several multi-rank jobs run at once, one per executor worker, and
  // glibc keeps each worker arena's freed job heap (mailboxes, envelope
  // buffers, app state) mapped. Hand it back so resident memory tracks
  // the live jobs, not the peak of every arena.
  if (nranks > 1) ::malloc_trim(0);
#endif
  return result;
}

}  // namespace resilience::simmpi
