// Stackful fiber primitive for the simmpi scheduler: an owned, pooled
// mmap stack plus a hand-written register-only context switch.
//
// A FiberContext is the mechanism only — allocate a stack, run an entry
// function on it, switch in from the run loop and out from the fiber.
// All policy (run queues, park/wake states, deadlock detection) lives in
// scheduler.{hpp,cpp}.
//
// Switch: a fiber switch is an ordinary function call as far as the
// compiler is concerned, so it only has to preserve what the SysV x86-64
// ABI makes callee-saved — rbx, rbp, r12–r15, the stack pointer, the
// MXCSR and the x87 control word. The switch pushes those onto the
// current stack, stores the stack pointer, loads the other context's and
// pops the same frame back off (a few dozen instructions, no syscall).
// The glibc user-context switch this replaced also saved and restored
// the signal mask with an rt_sigprocmask syscall and the full FP
// environment on every switch; fibers here never change the signal mask,
// so that syscall was pure overhead paid on every blocking receive and
// every fused-collective arrival. A new fiber starts from a boot frame laid
// out at the top of its stack that "returns" into a stub calling the
// entry, with the creating thread's MXCSR and x87 control word. The
// switch is x86-64 (SysV) assembly; any other target fails to compile
// with an #error naming the function to port. It does not maintain a
// CET shadow stack.
//
// Stacks: each fiber owns a private mmap'd stack with a PROT_NONE guard
// page below it, so an overflow faults instead of silently corrupting a
// neighbour. Campaigns create and destroy thousands of fibers (one per
// rank per job), so mappings are recycled through a process-wide freelist
// keyed by size — steady-state jobs pay no mmap/munmap at all. Size comes
// from RESILIENCE_FIBER_STACK_KB (resolved by the scheduler).
//
// Sanitizers: ThreadSanitizer models each fiber as a logical thread.
// Every switch is announced via __tsan_switch_to_fiber immediately before
// it, and fiber creation/destruction via __tsan_create_fiber/
// __tsan_destroy_fiber. AddressSanitizer is told about every stack
// change with __sanitizer_start_switch_fiber/
// __sanitizer_finish_switch_fiber, and a recycled stack is unpoisoned
// when a fiber is created on it (a fiber's last frame never returns, so
// its redzones would otherwise stay poisoned). The tsan- and
// asan-labeled suites run unchanged on the fiber scheduler.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define RESILIENCE_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RESILIENCE_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RESILIENCE_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RESILIENCE_ASAN_FIBERS 1
#endif
#endif

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
  [[noreturn]] static void trampoline(FiberContext* self);

  Entry entry_;
  void* arg_;
  void* mapping_ = nullptr;      ///< guard page + stack
  std::size_t mapping_bytes_ = 0;
  void* sp_ = nullptr;           ///< the fiber's saved stack pointer
  void* caller_sp_ = nullptr;    ///< the run loop's, while the fiber runs
#if defined(RESILIENCE_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;
  void* caller_tsan_fiber_ = nullptr;
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_bytes_ = 0;
#endif
};

}  // namespace resilience::simmpi::detail
