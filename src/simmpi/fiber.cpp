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
#if defined(RESILIENCE_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !(defined(__x86_64__) && defined(__linux__))
#error "simmpi fibers switch with x86-64 SysV assembly: port \
resilience_simmpi_fiber_switch and resilience_simmpi_fiber_boot \
(src/simmpi/fiber.cpp) to this target"
#endif

// resilience_simmpi_fiber_switch(save_sp, load_sp): push the
// callee-saved state onto the current stack, store the stack pointer to
// *save_sp, switch to load_sp and pop the same frame (SwitchFrame) off
// the other stack. Both stacks hold the identical frame layout, so one
// CFA rule describes the whole body. The saved stack pointer is 8 mod 16,
// like any callee's after its pushes, which keeps the ABI's 16-byte call
// alignment on resume.
//
// resilience_simmpi_fiber_boot: where a new fiber's boot frame returns
// to. r12 holds the FiberContext and r13 the trampoline; rsp is 16-byte
// aligned here, so the call enters the trampoline with a normal ABI
// frame. The undefined return address ends every unwind and backtrace at
// this frame.
extern "C" {
void resilience_simmpi_fiber_switch(void** save_sp, void* load_sp) noexcept;
void resilience_simmpi_fiber_boot();
}

asm(R"(
  .text
  .p2align 4
  .globl resilience_simmpi_fiber_switch
  .hidden resilience_simmpi_fiber_switch
  .type resilience_simmpi_fiber_switch, @function
resilience_simmpi_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size resilience_simmpi_fiber_switch, .-resilience_simmpi_fiber_switch

  .p2align 4
  .globl resilience_simmpi_fiber_boot
  .hidden resilience_simmpi_fiber_boot
  .type resilience_simmpi_fiber_boot, @function
resilience_simmpi_fiber_boot:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size resilience_simmpi_fiber_boot, .-resilience_simmpi_fiber_boot
)");

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

/// The saved stack frame of a switched-out context, lowest address first:
/// what resilience_simmpi_fiber_switch pushes below its return address.
struct SwitchFrame {
  std::uint64_t x87_control;  ///< fnstcw stores the low 16 bits
  std::uint64_t mxcsr;        ///< stmxcsr stores the low 32 bits
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  std::uint64_t return_address;
};
static_assert(sizeof(SwitchFrame) == 72, "frame layout is fixed by the asm");

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
  std::byte* const top = static_cast<std::byte*>(mapping_) + mapping_bytes_;
#if defined(RESILIENCE_ASAN_FIBERS)
  __asan_unpoison_memory_region(top - usable, usable);
#endif
  // Boot frame: 16 bytes of padding above it leave rsp 16-byte aligned
  // when the first switch returns into resilience_simmpi_fiber_boot.
  auto* frame =
      reinterpret_cast<SwitchFrame*>(top - 16 - sizeof(SwitchFrame));
  *frame = SwitchFrame{};
  std::uint16_t x87_control = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0\n\tstmxcsr %1" : "=m"(x87_control), "=m"(mxcsr));
  frame->x87_control = x87_control;
  frame->mxcsr = mxcsr;
  frame->r12 = reinterpret_cast<std::uintptr_t>(this);
  frame->r13 = reinterpret_cast<std::uintptr_t>(&FiberContext::trampoline);
  frame->return_address =
      reinterpret_cast<std::uintptr_t>(&resilience_simmpi_fiber_boot);
  sp_ = frame;
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

void FiberContext::trampoline(FiberContext* self) {
#if defined(RESILIENCE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &self->caller_stack_bottom_,
                                  &self->caller_stack_bytes_);
#endif
  self->entry_(self->arg_);
  // The entry contract is a final switch_out(); there is no frame to
  // return to above the boot stub.
  std::fprintf(stderr, "fiber: entry returned without switch_out\n");
  std::abort();
}

void FiberContext::switch_in() {
#if defined(RESILIENCE_TSAN_FIBERS)
  caller_tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(
      &fake_stack, static_cast<std::byte*>(mapping_) + page_size(),
      mapping_bytes_ - page_size());
#endif
  resilience_simmpi_fiber_switch(&caller_sp_, sp_);
#if defined(RESILIENCE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void FiberContext::switch_out() {
#if defined(RESILIENCE_TSAN_FIBERS)
  __tsan_switch_to_fiber(caller_tsan_fiber_, 0);
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
  // The final switch_out cannot tell ASan the fiber is finished, so under
  // detect_stack_use_after_return (off by default) its fake stack leaks.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, caller_stack_bottom_,
                                 caller_stack_bytes_);
#endif
  resilience_simmpi_fiber_switch(&sp_, caller_sp_);
#if defined(RESILIENCE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, &caller_stack_bottom_,
                                  &caller_stack_bytes_);
#endif
}

void FiberContext::clear_stack_pool() { StackPool::instance().clear(); }

}  // namespace resilience::simmpi::detail
