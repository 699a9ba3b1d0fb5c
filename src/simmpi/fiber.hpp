// Stackful fiber primitive for the simmpi scheduler: an owned, pooled
// mmap stack plus a ucontext execution context.
//
// A FiberContext is the mechanism only — allocate a stack, run an entry
// function on it, switch in from the run loop and out from the fiber.
// All policy (run queues, park/wake states, deadlock detection) lives in
// scheduler.{hpp,cpp}.
//
// Stacks: each fiber owns a private mmap'd stack with a PROT_NONE guard
// page below it, so an overflow faults instead of silently corrupting a
// neighbour. Campaigns create and destroy thousands of fibers (one per
// rank per job), so mappings are recycled through a process-wide freelist
// keyed by size — steady-state jobs pay no mmap/munmap at all. Size comes
// from RESILIENCE_FIBER_STACK_KB (resolved by the scheduler).
//
// ThreadSanitizer: tsan models each fiber as a logical thread. Every
// context switch is announced via __tsan_switch_to_fiber immediately
// before the swapcontext, and fiber creation/destruction via
// __tsan_create_fiber/__tsan_destroy_fiber, so the tsan-labeled test
// suite runs unchanged on the fiber scheduler.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define RESILIENCE_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RESILIENCE_TSAN_FIBERS 1
#endif
#endif

#include <ucontext.h>

namespace resilience::simmpi::detail {

/// Round a requested stack size up to whole pages, with a sane floor.
[[nodiscard]] std::size_t usable_stack_bytes(std::size_t requested);

/// One resumable execution context on an owned stack.
class FiberContext {
 public:
  using Entry = void (*)(void* arg);

  /// Acquires a stack (pooled) and prepares `entry(arg)` to run on it at
  /// the first switch_in(). `entry` must finish with a final switch_out()
  /// and never return.
  FiberContext(std::size_t stack_bytes, Entry entry, void* arg);
  ~FiberContext();

  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Transfer the calling (worker) thread into the fiber; returns when
  /// the fiber next calls switch_out(). Not reentrant: a fiber must not
  /// switch into another fiber.
  void switch_in();

  /// Transfer from inside the fiber back to the run loop that resumed it.
  void switch_out();

  /// Drop every pooled idle stack mapping (tests / memory pressure).
  static void clear_stack_pool();

 private:
  static void trampoline(unsigned hi, unsigned lo);

  Entry entry_;
  void* arg_;
  void* mapping_ = nullptr;      ///< guard page + stack
  std::size_t mapping_bytes_ = 0;
  ucontext_t context_{};
#if defined(RESILIENCE_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;
#endif
};

}  // namespace resilience::simmpi::detail
