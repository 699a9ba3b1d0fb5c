// FIFO thread pool for fault-injection campaigns.
//
// A campaign is hundreds of independent trials, and every trial — serial
// or multi-rank — runs its simmpi job on the one thread that executes it
// (the ranks of a multi-rank job are fibers on that thread). So each task
// is exactly one thread wide, and the pool simply runs queued tasks in
// FIFO order on `workers` threads: a serial sweep and a 64-rank campaign
// both keep every core busy with one trial per worker.
//
// Determinism contract: the executor only decides *when* a task runs,
// never what it computes. Campaign code keeps results bit-identical to
// serial execution by giving every trial its own seeded RNG stream and
// merging per-trial outcomes in trial order (see run_campaign_loop in
// harness/campaign_engine.hpp, shared with sharded campaigns).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace resilience::harness {

class Executor {
 public:
  using Task = std::function<void()>;

  /// max_workers <= 0 resolves via resolve_workers(). A 1-worker executor
  /// spawns no threads; run() then executes batches inline on the caller.
  explicit Executor(int max_workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Worker count: the most tasks in flight at once.
  [[nodiscard]] int workers() const noexcept { return workers_; }

  /// Run every task to completion and return. Tasks start in FIFO order
  /// as workers free up. Safe to call from several threads at once —
  /// concurrent batches interleave in the one queue (how run_study
  /// overlaps its phases). Called from inside one of this pool's workers
  /// (or any Executor's worker), the batch runs inline on the caller
  /// instead, so nested submission cannot deadlock the pool.
  /// If tasks threw, the lowest-index exception is rethrown after all
  /// tasks of the batch finished.
  void run(std::vector<Task> tasks);

  /// Effective worker count: `requested` if > 0, else the
  /// RESILIENCE_THREADS environment variable if set, else
  /// std::thread::hardware_concurrency() (1 if unknown).
  static int resolve_workers(int requested) noexcept;

 private:
  /// Completion state of one run() call; lives on the caller's stack.
  struct Batch {
    std::size_t pending = 0;
    std::size_t error_index = 0;
    std::exception_ptr error;
    std::condition_variable done;
  };
  struct Queued {
    Batch* batch;
    std::size_t index;
    Task fn;
  };

  void worker_main();
  static void run_inline(std::vector<Task>& tasks);

  int workers_ = 1;
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<Queued> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace resilience::harness
