#include "simmpi/scheduler.hpp"

#include <cstdio>
#include <cstdlib>

namespace resilience::simmpi {

namespace {

/// The fiber the calling thread is currently executing, if any. The run
/// loop sets it around each slice; everything else (mailbox waits,
/// collective arrivals) reads it to decide fiber-path behaviour.
thread_local detail::Fiber* tl_current_fiber = nullptr;

}  // namespace

namespace detail {

Fiber::Fiber(FiberScheduler* scheduler, int rank, std::size_t stack_bytes)
    : scheduler_(scheduler),
      rank_(rank),
      context_(stack_bytes, &Fiber::entry_thunk, this) {}

void Fiber::entry_thunk(void* arg) {
  auto* fiber = static_cast<Fiber*>(arg);
  fiber->scheduler_->fiber_entry(fiber);
}

}  // namespace detail

FiberScheduler::FiberScheduler(int nranks, std::size_t stack_bytes)
    : nranks_(nranks), stack_bytes_(stack_bytes) {}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::run(const std::function<void(int rank)>& body) {
  body_ = body;
  fibers_.reserve(static_cast<std::size_t>(nranks_));
  for (int rank = 0; rank < nranks_; ++rank) {
    fibers_.push_back(
        std::make_unique<detail::Fiber>(this, rank, stack_bytes_));
    run_queue_.push_back(fibers_.back().get());
  }
  int finished = 0;
  while (finished < nranks_) {
    if (run_queue_.empty()) {
      // Nothing runnable, some fibers unfinished: no future event can
      // wake them (no timers, no external input). The job is deadlocked —
      // deterministically, not after a timeout. Run the parked fibers so
      // their blocking primitives observe deadlocked() and throw.
      deadlocked_ = true;
      for (auto& fiber : fibers_) unpark(fiber.get());
      if (run_queue_.empty()) {
        std::fprintf(stderr, "scheduler: unfinished fibers but none parked\n");
        std::abort();
      }
    }
    detail::Fiber* fiber = run_queue_.front();
    run_queue_.pop_front();
    fiber->state_ = detail::Fiber::State::Running;
    resume(fiber);
    if (fiber->state_ == detail::Fiber::State::Done) ++finished;
  }
}

void FiberScheduler::fiber_entry(detail::Fiber* fiber) {
  body_(fiber->rank_);
  fiber->state_ = detail::Fiber::State::Done;
  // Final switch back to the run loop; the fiber is never resumed again
  // (the trampoline aborts if it somehow is).
  fiber->context_.switch_out();
}

void FiberScheduler::resume(detail::Fiber* fiber) {
  util::FiberTlsRegistry::swap(fiber->tls_);
  tl_current_fiber = fiber;
  fiber->context_.switch_in();
  tl_current_fiber = nullptr;
  util::FiberTlsRegistry::swap(fiber->tls_);
}

void FiberScheduler::park() {
  detail::Fiber* fiber = current_fiber();
  if (fiber == nullptr) {
    std::fprintf(stderr, "scheduler: park called outside a fiber\n");
    std::abort();
  }
  fiber->state_ = detail::Fiber::State::Parked;
  fiber->context_.switch_out();
}

void FiberScheduler::unpark(detail::Fiber* fiber) {
  if (fiber->state_ != detail::Fiber::State::Parked) return;
  fiber->state_ = detail::Fiber::State::Runnable;
  run_queue_.push_back(fiber);
}

void FiberScheduler::yield_current() {
  detail::Fiber* fiber = current_fiber();
  if (fiber == nullptr) return;
  fiber->state_ = detail::Fiber::State::Runnable;
  fiber->scheduler_->run_queue_.push_back(fiber);
  fiber->context_.switch_out();
}

void FiberScheduler::wake_all_parked() {
  for (auto& fiber : fibers_) unpark(fiber.get());
}

detail::Fiber* FiberScheduler::current_fiber() noexcept {
  return tl_current_fiber;
}

BorrowFiberTls::BorrowFiberTls(detail::Fiber* fiber) {
  if (fiber == nullptr || fiber == FiberScheduler::current_fiber()) return;
  fiber_ = fiber;
  util::FiberTlsRegistry::swap(fiber_->tls_);
}

BorrowFiberTls::~BorrowFiberTls() {
  if (fiber_ != nullptr) util::FiberTlsRegistry::swap(fiber_->tls_);
}

}  // namespace resilience::simmpi
