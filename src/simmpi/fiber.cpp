#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#if defined(RESILIENCE_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

namespace resilience::simmpi::detail {

namespace {

std::size_t page_size() noexcept {
  static const std::size_t size = [] {
    const long s = ::sysconf(_SC_PAGESIZE);
    return s > 0 ? static_cast<std::size_t>(s) : std::size_t{4096};
  }();
  return size;
}

/// Process-wide freelist of idle stack mappings keyed by total size.
/// Campaigns churn one fiber per rank per job; recycling mappings keeps
/// that churn off the mmap path (and keeps the pages warm).
class StackPool {
 public:
  static StackPool& instance() {
    static StackPool* pool = new StackPool;  // leaked: alive at exit
    return *pool;
  }

  void* get(std::size_t bytes) {
    {
      std::lock_guard lock(mu_);
      auto it = idle_.find(bytes);
      if (it != idle_.end() && !it->second.empty()) {
        void* mapping = it->second.back();
        it->second.pop_back();
        return mapping;
      }
    }
    void* mapping = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) throw std::bad_alloc();
    // Guard page at the low end: stacks grow down on every platform this
    // runs on, so an overflow hits PROT_NONE instead of a neighbour.
    if (::mprotect(mapping, page_size(), PROT_NONE) != 0) {
      ::munmap(mapping, bytes);
      throw std::bad_alloc();
    }
    return mapping;
  }

  void put(void* mapping, std::size_t bytes) noexcept {
    {
      std::lock_guard lock(mu_);
      auto& list = idle_[bytes];
      if (list.size() < kMaxIdlePerSize) {
        list.push_back(mapping);
        return;
      }
    }
    ::munmap(mapping, bytes);
  }

  void clear() {
    std::lock_guard lock(mu_);
    for (auto& [bytes, list] : idle_) {
      for (void* mapping : list) ::munmap(mapping, bytes);
      list.clear();
    }
  }

 private:
  /// Bounds resident idle mappings: a 1024-rank job at the default stack
  /// size parks ~256 MiB of (mostly untouched) address space, which this
  /// cap keeps from compounding across widths.
  static constexpr std::size_t kMaxIdlePerSize = 2048;

  std::mutex mu_;
  std::unordered_map<std::size_t, std::vector<void*>> idle_;
};

/// Where a switched-out fiber returns to: the resuming run loop saves its
/// own context here for the duration of the slice. Thread-local, because
/// every thread may be running a job of its own.
thread_local ucontext_t* tl_return_context = nullptr;
#if defined(RESILIENCE_TSAN_FIBERS)
thread_local void* tl_worker_tsan_fiber = nullptr;
#endif

}  // namespace

std::size_t usable_stack_bytes(std::size_t requested) {
  const std::size_t page = page_size();
  const std::size_t floor = 4 * page;
  const std::size_t bytes = requested < floor ? floor : requested;
  return (bytes + page - 1) / page * page;
}

FiberContext::FiberContext(std::size_t stack_bytes, Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  const std::size_t usable = usable_stack_bytes(stack_bytes);
  mapping_bytes_ = usable + page_size();
  mapping_ = StackPool::instance().get(mapping_bytes_);
  if (::getcontext(&context_) != 0) {
    StackPool::instance().put(mapping_, mapping_bytes_);
    mapping_ = nullptr;
    throw std::bad_alloc();
  }
  context_.uc_stack.ss_sp =
      static_cast<std::byte*>(mapping_) + page_size();
  context_.uc_stack.ss_size = usable;
  context_.uc_link = nullptr;  // the entry must switch_out, never fall off
  // makecontext only passes ints; split the pointer across two of them.
  // Widen to 64 bits first: on a 32-bit target `uintptr_t >> 32` would
  // shift by the full type width, which is undefined behavior.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  ::makecontext(&context_, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#if defined(RESILIENCE_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

FiberContext::~FiberContext() {
#if defined(RESILIENCE_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (mapping_ != nullptr) {
    StackPool::instance().put(mapping_, mapping_bytes_);
  }
}

void FiberContext::trampoline(unsigned hi, unsigned lo) {
  const auto bits =
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
  auto* self =
      reinterpret_cast<FiberContext*>(static_cast<std::uintptr_t>(bits));
  self->entry_(self->arg_);
  // The entry contract is a final switch_out(); falling off the context
  // would terminate the thread (uc_link is null).
  std::fprintf(stderr, "fiber: entry returned without switch_out\n");
  std::abort();
}

void FiberContext::switch_in() {
  ucontext_t here;
  ucontext_t* const previous = tl_return_context;
  tl_return_context = &here;
#if defined(RESILIENCE_TSAN_FIBERS)
  void* const previous_tsan = tl_worker_tsan_fiber;
  tl_worker_tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  if (::swapcontext(&here, &context_) != 0) {
    std::fprintf(stderr, "fiber: swapcontext into fiber failed\n");
    std::abort();
  }
#if defined(RESILIENCE_TSAN_FIBERS)
  tl_worker_tsan_fiber = previous_tsan;
#endif
  tl_return_context = previous;
}

void FiberContext::switch_out() {
  ucontext_t* const back = tl_return_context;
#if defined(RESILIENCE_TSAN_FIBERS)
  __tsan_switch_to_fiber(tl_worker_tsan_fiber, 0);
#endif
  if (::swapcontext(&context_, back) != 0) {
    std::fprintf(stderr, "fiber: swapcontext out of fiber failed\n");
    std::abort();
  }
}

void FiberContext::clear_stack_pool() { StackPool::instance().clear(); }

}  // namespace resilience::simmpi::detail
