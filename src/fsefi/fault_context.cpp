#include "fsefi/fault_context.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "telemetry/telemetry.hpp"
#include "util/fiber_tls.hpp"

namespace resilience::fsefi {

namespace {

std::atomic<bool> g_fast_real{true};

// The installed fault context is per-rank state: ranks are fibers sharing
// one thread, so register the slot for the scheduler to swap it on every
// fiber switch.
[[maybe_unused]] const std::size_t g_context_tls_slot =
    util::FiberTlsRegistry::add({
        []() noexcept -> void* { return detail::tl_context; },
        [](void* v) noexcept {
          detail::tl_context = static_cast<FaultContext*>(v);
        },
    });

}  // namespace

bool fast_real_enabled() noexcept {
  return g_fast_real.load(std::memory_order_relaxed);
}

void set_fast_real_enabled(bool enabled) noexcept {
  g_fast_real.store(enabled, std::memory_order_relaxed);
}

double flip_bit(double value, int bit) noexcept {
  const int clamped = std::clamp(bit, 0, 63);
  const auto bits = std::bit_cast<std::uint64_t>(value);
  return std::bit_cast<double>(bits ^ (1ULL << clamped));
}

double flip_bits(double value, int bit, int width) noexcept {
  const int lo = std::clamp(bit, 0, 63);
  const int hi = std::clamp(bit + std::max(width, 1) - 1, lo, 63);
  std::uint64_t mask = 0;
  for (int b = lo; b <= hi; ++b) mask |= 1ULL << b;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) ^ mask);
}

const char* to_string(FaultPattern pattern) noexcept {
  switch (pattern) {
    case FaultPattern::SingleBit:
      return "single-bit";
    case FaultPattern::DoubleBit:
      return "double-bit";
    case FaultPattern::Burst4:
      return "burst-4";
    case FaultPattern::Byte:
      return "byte";
    case FaultPattern::RankCrash:
      return "rank-crash";
  }
  return "?";
}

void FaultContext::arm(InjectionPlan plan) {
  reset();
  const auto by_op_index = [](const InjectionPoint& a,
                              const InjectionPoint& b) {
    return a.op_index < b.op_index;
  };
  if (!std::is_sorted(plan.points.begin(), plan.points.end(), by_op_index)) {
    throw std::invalid_argument("InjectionPlan points must be sorted");
  }
  if (!std::is_sorted(plan.payload_points.begin(), plan.payload_points.end(),
                      by_op_index)) {
    throw std::invalid_argument(
        "InjectionPlan payload points must be sorted");
  }
  if (!std::is_sorted(plan.state_faults.begin(), plan.state_faults.end(),
                      [](const StateFault& a, const StateFault& b) {
                        return a.boundary < b.boundary;
                      })) {
    throw std::invalid_argument(
        "InjectionPlan state faults must be sorted by boundary");
  }
  // Pre-size the trace so the first flip never reallocates inside the
  // instrumented hot path.
  events_.reserve(plan.points.size());
  plan_ = std::move(plan);
  armed_ = true;
  filter_word_ = filter_word(plan_.kinds, plan_.regions);
  recompute_countdown();
  // Which dispatch path this armed context will take — the arm-time state
  // is logical (a function of plan + kill switch), unlike transient
  // FastIdle<->FastLive flips during the run.
  switch (state_) {
    case HotState::FastIdle:
      telemetry::count(telemetry::Counter::FsefiDispatchFastIdle);
      break;
    case HotState::FastLive:
      telemetry::count(telemetry::Counter::FsefiDispatchFastLive);
      break;
    case HotState::Reference:
      telemetry::count(telemetry::Counter::FsefiDispatchReference);
      break;
  }
}

void FaultContext::reset() {
  profile_ = OpCountProfile{};
  ops_total_ = 0;
  filtered_ops_ = 0;
  recv_reals_ = 0;
  plan_ = InjectionPlan{};
  armed_ = false;
  next_point_ = 0;
  next_payload_ = 0;
  events_.clear();
  contaminated_ = false;
  first_contamination_op_ = 0;
  set_region(Region::Common);
  state_ = fast_real_enabled() ? HotState::FastIdle : HotState::Reference;
  filter_word_ = 0;
  filtered_bias_ = 0;
  recompute_countdown();
}

void FaultContext::fast_forward(const OpCountProfile& target) noexcept {
  // profile_row_ points into profile_.counts; assigning the values in
  // place keeps it valid.
  profile_ = target;
  if (!fast()) {
    // The reference path maintains dedicated counters instead of deriving
    // them from the profile; advance them to the same values the per-op
    // implementation would have reached.
    ops_total_ = target.total();
    filtered_ops_ =
        armed_ ? target.matching(plan_.kinds, plan_.regions) : 0;
  }
  recompute_countdown();
}

void FaultContext::recompute_countdown() noexcept {
  if (state_ != HotState::Reference) {
    const bool idle = op_budget_ == 0 && next_point_ >= plan_.points.size();
    state_ = idle ? HotState::FastIdle : HotState::FastLive;
  }
  std::uint64_t countdown = kIdleCountdown;
  if (op_budget_ != 0) {
    // The guard throws during the op that makes the op total exceed the
    // budget; if it is already exceeded (budget lowered mid-run), the very
    // next op must throw.
    const std::uint64_t total = ops_total();
    countdown = total >= op_budget_ ? 1 : op_budget_ - total + 1;
  }
  if (next_point_ < plan_.points.size()) {
    // The next injection fires during the op whose pre-op filtered index
    // equals op_index. The filtered stream advances at most one per op,
    // so this many ops must pass first — a lower bound that on_event
    // re-tightens whenever it elapses early.
    const std::uint64_t to_injection =
        plan_.points[next_point_].op_index - filtered_ops() + 1;
    countdown = to_injection < countdown ? to_injection : countdown;
  }
  countdown_ = countdown;
}

void FaultContext::on_event(OpKind kind, double& a, double& b) {
  telemetry::count(telemetry::Counter::FsefiCountdownRefills);
  if (op_budget_ != 0 && ops_total() > op_budget_) {
    // The reference path throws before filter accounting: if this op
    // matched, the derived filtered count must exclude it. Leave a live
    // countdown so catch-and-continue keeps throwing.
    filtered_bias_ += (filter_word_ >> filter_bit(region_, kind)) & 1u;
    countdown_ = 1;
    telemetry::count(telemetry::Counter::FsefiBudgetThrows);
    throw HangBudgetExceeded();
  }
  if (((filter_word_ >> filter_bit(region_, kind)) & 1u) != 0) {
    const std::uint64_t idx = filtered_ops() - 1;  // this op's filtered index
    if (plan_.crash && next_point_ < plan_.points.size() &&
        plan_.points[next_point_].op_index == idx) {
      ++next_point_;
      countdown_ = 1;  // catch-and-continue keeps the rank dead
      telemetry::count(telemetry::Counter::ScenarioRankCrashes);
      telemetry::trace_instant("scenario", "rank_crash", "op", ops_total());
      throw RankCrashError();
    }
    while (next_point_ < plan_.points.size() &&
           plan_.points[next_point_].op_index == idx) {
      const InjectionPoint& pt = plan_.points[next_point_];
      double& target = (pt.operand == 0) ? a : b;
      const double before = target;
      target = flip_bits(target, pt.bit, pt.width);
      events_.push_back({ops_total(), idx, kind, region_, pt.operand, pt.bit,
                         pt.width, before, target});
      ++next_point_;
      mark_contaminated();
      telemetry::count(telemetry::Counter::FsefiInjections);
      telemetry::trace_instant("fsefi", "injection", "op", ops_total());
    }
  }
  recompute_countdown();
}

void FaultContext::reference_on_op(OpKind kind, double& a, double& b) {
  ++ops_total_;
  if (op_budget_ != 0 && ops_total_ > op_budget_) {
    telemetry::count(telemetry::Counter::FsefiBudgetThrows);
    throw HangBudgetExceeded();
  }
  if (armed_ && contains(plan_.kinds, kind) &&
      contains(plan_.regions, region_)) {
    const std::uint64_t idx = filtered_ops_++;
    if (plan_.crash && next_point_ < plan_.points.size() &&
        plan_.points[next_point_].op_index == idx) {
      ++next_point_;
      telemetry::count(telemetry::Counter::ScenarioRankCrashes);
      telemetry::trace_instant("scenario", "rank_crash", "op", ops_total_);
      throw RankCrashError();
    }
    while (next_point_ < plan_.points.size() &&
           plan_.points[next_point_].op_index == idx) {
      const InjectionPoint& pt = plan_.points[next_point_];
      double& target = (pt.operand == 0) ? a : b;
      const double before = target;
      target = flip_bits(target, pt.bit, pt.width);
      events_.push_back({ops_total_, idx, kind, region_, pt.operand, pt.bit,
                         pt.width, before, target});
      ++next_point_;
      mark_contaminated();
      telemetry::count(telemetry::Counter::FsefiInjections);
      telemetry::trace_instant("fsefi", "injection", "op", ops_total_);
    }
  }
}

const InjectionPoint* FaultContext::take_payload_flip_slow(
    std::uint64_t base, std::size_t n) noexcept {
  const InjectionPoint& pt = plan_.payload_points[next_payload_];
  if (pt.op_index < base || pt.op_index - base >= n) return nullptr;
  ++next_payload_;
  telemetry::count(telemetry::Counter::ScenarioPayloadFlips);
  telemetry::trace_instant("scenario", "payload_flip", "recv", pt.op_index);
  return &pt;
}

}  // namespace resilience::fsefi
