#include "util/fiber_tls.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace resilience::util {

namespace {

FiberTlsSlot g_slots[FiberTlsRegistry::kMaxSlots];
// Published with release so a reader that observes the count also sees
// the slot contents written before the bump (registration is static-init
// single-threaded in practice; the ordering makes it correct regardless).
std::atomic<std::size_t> g_count{0};

}  // namespace

std::size_t FiberTlsRegistry::add(const FiberTlsSlot& slot) noexcept {
  const std::size_t index = g_count.load(std::memory_order_relaxed);
  if (index >= kMaxSlots) {
    std::fprintf(stderr, "fiber_tls: slot registry full (%zu)\n", kMaxSlots);
    std::abort();
  }
  g_slots[index] = slot;
  g_count.store(index + 1, std::memory_order_release);
  return index;
}

void FiberTlsRegistry::swap(Values& values) noexcept {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    void* live = g_slots[i].get();
    g_slots[i].set(values[i]);
    values[i] = live;
  }
}

}  // namespace resilience::util
