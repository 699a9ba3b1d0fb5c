// Job launcher for the simulated MPI runtime.
//
// Runtime::run executes `body` once per rank and reports how the job
// ended: clean completion, abort (a rank threw), or deadlock. The
// campaign harness maps abnormal endings onto the paper's "Failure"
// fault-injection outcome.
//
// Execution core: a job runs entirely on the calling thread.
//  - One rank runs inline, with no fiber at all, so the fault injector's
//    thread-local context installed by the caller stays valid and serial
//    campaigns are cheap.
//  - More ranks run as cooperative fibers on a single-threaded run queue
//    (scheduler.hpp), so a 1024-rank job costs one OS thread, deadlock is
//    detected deterministically the moment no fiber is runnable, and the
//    schedule — hence every result — is a pure function of the job.
// Parallelism comes from running many jobs at once: the campaign
// executor's worker threads and the shard worker processes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "simmpi/comm.hpp"

namespace resilience::simmpi {

namespace detail {

[[nodiscard]] std::size_t resolved_fiber_stack_bytes() noexcept;
/// Per-rank fiber stack size in KiB (default 256; 0 = back to the
/// default). Tests shrink it to probe the guard page.
void set_fiber_stack_kb(std::size_t kb) noexcept;

/// Does nothing. Every job runs its fibers on the launching thread; the
/// call survives only so existing benchmark code keeps building.
void set_scheduler_workers(int workers) noexcept;

}  // namespace detail

struct RunOptions {
  /// Optional hook run on each rank before the body (the fault injector
  /// uses it to install per-rank thread-local state).
  std::function<void(int rank)> on_rank_start{};
  /// Optional hook run on each rank after the body, even when the body
  /// throws.
  std::function<void(int rank)> on_rank_exit{};
};

struct RunResult {
  bool ok = false;          ///< all ranks returned normally
  bool aborted = false;     ///< a rank threw; job torn down
  bool deadlocked = false;  ///< every unfinished rank was blocked
  int failed_rank = -1;     ///< rank whose exception triggered the abort
  std::string error;        ///< what() of the first exception
  /// Transport statistics over the whole job: point-to-point messages and
  /// the messages collectives decompose into. Fused collectives still
  /// report their logical decomposition, so these counts are independent
  /// of whether collectives were fused.
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Envelope-pool statistics: payload buffers freshly heap-allocated vs
  /// recycled from the per-mailbox freelists. Also published to the
  /// telemetry registry as simmpi.buffer_allocs / simmpi.buffer_reuses.
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_reuses = 0;

  [[nodiscard]] bool failed() const noexcept { return !ok; }
};

class Runtime {
 public:
  /// Run `body` on `nranks` ranks on the calling thread and return once
  /// all of them finished. Exceptions thrown by a rank trigger an
  /// MPI_Abort-style teardown: the first exception is recorded and every
  /// blocked rank is woken with AbortError. Never throws for in-job
  /// errors; throws UsageError for nranks < 1.
  static RunResult run(int nranks, const std::function<void(Comm&)>& body,
                       const RunOptions& options = {});
};

}  // namespace resilience::simmpi
