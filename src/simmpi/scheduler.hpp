// Cooperative fiber scheduler: every rank of a job is a resumable fiber,
// and all of them run on the thread that launched the job (DESIGN.md §11).
//
// One stackful fiber per rank (fiber.hpp), driven by a plain FIFO run
// queue on the launching thread: a blocking point (mailbox receive, fused
// collective arrival) parks the fiber and the loop resumes the next
// runnable one. A job therefore costs exactly one OS thread no matter how
// many ranks it simulates — 1024 ranks included; the campaign executor
// and the shard processes supply parallelism *across* jobs.
//
// Because a job never leaves its thread, nothing in it needs a lock:
//   - park() marks the running fiber Parked and switches to the loop;
//   - unpark() moves a Parked fiber to the back of the run queue, and
//     ignores every other state (a satisfied or spurious wake);
//   - yield_current() requeues the running fiber at the back.
// The schedule is a pure function of the job body: the run queue order is
// the only source of interleaving, so every run of a job replays it.
//
// Deadlock detection is deterministic, not timer-based: the moment the
// run queue drains while some fibers are unfinished, no future event can
// ever unblock them (there are no timers and no external inputs), so the
// scheduler declares the job deadlocked and wakes every parked fiber in
// rank order; the blocking primitives observe deadlocked() and throw
// DeadlockError.
//
// Fiber-local state: a resumed fiber gets its saved bank of registered
// thread-local slots (util::FiberTlsRegistry — fault-injector context,
// trial control, telemetry scope stack) and the launching thread's bank
// is restored on suspend, so per-rank state follows its fiber.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "simmpi/fiber.hpp"
#include "util/fiber_tls.hpp"

namespace resilience::simmpi {

class FiberScheduler;
class BorrowFiberTls;

namespace detail {

/// One rank's resumable execution context plus its scheduler state.
class Fiber {
 public:
  Fiber(FiberScheduler* scheduler, int rank, std::size_t stack_bytes);

  [[nodiscard]] int rank() const noexcept { return rank_; }

 private:
  friend class ::resilience::simmpi::FiberScheduler;
  friend class ::resilience::simmpi::BorrowFiberTls;

  enum class State { Runnable, Running, Parked, Done };

  static void entry_thunk(void* arg);

  FiberScheduler* scheduler_;
  int rank_;
  State state_ = State::Runnable;
  util::FiberTlsRegistry::Values tls_{};  ///< saved bank while suspended
  FiberContext context_;  ///< last member: entry may run immediately never
};

}  // namespace detail

class FiberScheduler {
 public:
  /// Prepares a scheduler for `nranks` fibers with `stack_bytes` stacks.
  FiberScheduler(int nranks, std::size_t stack_bytes);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Create one fiber per rank executing `body(rank)` and drive them on
  /// the calling thread until every one finished. `body` must not throw
  /// (Runtime's rank wrapper catches everything).
  void run(const std::function<void(int rank)>& body);

  /// Park the calling fiber until some unpark() makes it runnable again.
  /// The caller registers itself with whatever will wake it first.
  void park();

  /// Make a parked fiber runnable; wakes of any other state are ignored.
  void unpark(detail::Fiber* fiber);

  /// Wake every parked fiber (job abort teardown): each resumes inside
  /// its blocking primitive, re-checks its predicate and observes the
  /// abort token.
  void wake_all_parked();

  /// True once the scheduler declared the job deadlocked (every fiber
  /// blocked). Blocking primitives check this after resuming and throw
  /// DeadlockError.
  [[nodiscard]] bool deadlocked() const noexcept { return deadlocked_; }

  /// Reschedule the calling fiber at the back of the run queue so its
  /// peers can make progress; no-op outside fibers. No simmpi primitive
  /// polls, so only tests call it, to stage a chosen interleaving.
  static void yield_current();

  /// The fiber running on the calling thread (nullptr outside fibers).
  [[nodiscard]] static detail::Fiber* current_fiber() noexcept;

 private:
  friend class detail::Fiber;

  void fiber_entry(detail::Fiber* fiber);
  void resume(detail::Fiber* fiber);

  const int nranks_;
  const std::size_t stack_bytes_;
  std::function<void(int)> body_;
  std::deque<detail::Fiber*> run_queue_;
  std::vector<std::unique_ptr<detail::Fiber>> fibers_;
  bool deadlocked_ = false;
};

namespace detail {

/// Parked fibers blocked on one structure (a fused-collective group).
/// wake_all() empties the list; a fiber woken any other way (abort or
/// deadlock teardown) removes its own entry after it resumes.
class WaitList {
 public:
  void add(Fiber* fiber) { fibers_.push_back(fiber); }
  void remove(Fiber* fiber) {
    for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
      if (*it == fiber) {
        fibers_.erase(it);
        return;
      }
    }
  }
  [[nodiscard]] bool empty() const noexcept { return fibers_.empty(); }
  void wake_all(FiberScheduler& scheduler) {
    for (Fiber* fiber : fibers_) scheduler.unpark(fiber);
    fibers_.clear();
  }

 private:
  std::vector<Fiber*> fibers_;
};

}  // namespace detail

/// Temporarily install a suspended fiber's saved thread-local bank on the
/// calling thread. The fused-collective combiner uses this to attribute
/// per-rank instrumentation (TransportTraits::on_receive, fault-context
/// taint, telemetry counts) to the logical rank it belongs to while
/// executing the whole combine on one fiber. No-op for null or the
/// calling fiber itself. The bank is stable for the borrow's lifetime
/// because the combiner runs to completion on the job's only thread.
class BorrowFiberTls {
 public:
  explicit BorrowFiberTls(detail::Fiber* fiber);
  ~BorrowFiberTls();
  BorrowFiberTls(const BorrowFiberTls&) = delete;
  BorrowFiberTls& operator=(const BorrowFiberTls&) = delete;

 private:
  detail::Fiber* fiber_ = nullptr;
};

}  // namespace resilience::simmpi
