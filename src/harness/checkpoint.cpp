#include "harness/checkpoint.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "fsefi/fault_context.hpp"
#include "simmpi/comm.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::harness {

namespace {

std::atomic<bool> g_checkpoint{true};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Word-wide FNV-1a step: cheap, order-sensitive, platform-stable.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * kFnvPrime;
}

}  // namespace

bool checkpoint_enabled() noexcept {
  return g_checkpoint.load(std::memory_order_relaxed);
}

void set_checkpoint_enabled(bool enabled) noexcept {
  g_checkpoint.store(enabled, std::memory_order_relaxed);
}

std::uint64_t digest_views(std::span<const apps::StateView> views) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const apps::StateView& v : views) {
    h = mix(h, static_cast<std::uint64_t>(v.kind));
    h = mix(h, v.count);
    if (v.kind == apps::StateView::Kind::Reals) {
      for (const fsefi::Real& r : v.as_reals()) {
        h = mix(h, std::bit_cast<std::uint64_t>(r.value()));
      }
    } else {
      for (const double d : v.as_doubles()) {
        h = mix(h, std::bit_cast<std::uint64_t>(d));
      }
    }
  }
  return h;
}

bool views_tainted(std::span<const apps::StateView> views) noexcept {
  for (const apps::StateView& v : views) {
    if (v.kind != apps::StateView::Kind::Reals) continue;
    for (const fsefi::Real& r : v.as_reals()) {
      if (r.tainted()) return true;
    }
  }
  return false;
}

std::vector<std::byte> serialize_views(
    std::span<const apps::StateView> views) {
  std::size_t total = 0;
  for (const apps::StateView& v : views) total += v.byte_size();
  std::vector<std::byte> out(total);
  std::size_t off = 0;
  for (const apps::StateView& v : views) {
    std::memcpy(out.data() + off, v.data, v.byte_size());
    off += v.byte_size();
  }
  return out;
}

void restore_views(std::span<const std::byte> bytes,
                   std::span<const apps::StateView> views) {
  std::size_t total = 0;
  for (const apps::StateView& v : views) total += v.byte_size();
  if (total != bytes.size()) {
    throw std::runtime_error(
        "checkpoint restore: state shape differs from capture");
  }
  std::size_t off = 0;
  for (const apps::StateView& v : views) {
    std::memcpy(v.data, bytes.data() + off, v.byte_size());
    off += v.byte_size();
  }
}

const BoundaryRecord* CheckpointData::find(int iter) const noexcept {
  // Boundaries are contiguous (record k has iter k + 1) for every app in
  // the suite; fall back to a scan so the lookup never depends on it.
  if (iter >= 1) {
    const auto idx = static_cast<std::size_t>(iter - 1);
    if (idx < boundaries.size() && boundaries[idx].iter == iter) {
      return &boundaries[idx];
    }
  }
  for (const BoundaryRecord& b : boundaries) {
    if (b.iter == iter) return &b;
  }
  return nullptr;
}

const BoundaryRecord* select_resume(
    const CheckpointData& data,
    const std::vector<fsefi::InjectionPlan>& plans) noexcept {
  // The delivered-Real stream position is not part of the boundary
  // record, so a plan with payload faults admits no provably-safe
  // restore point at all.
  for (const fsefi::InjectionPlan& plan : plans) {
    if (!plan.payload_points.empty()) return nullptr;
  }
  const BoundaryRecord* best = nullptr;
  for (const BoundaryRecord& rec : data.boundaries) {
    if (!rec.stored() || rec.iter <= 0) continue;
    if (rec.profiles.size() != plans.size()) return nullptr;
    bool eligible = true;
    for (std::size_t r = 0; r < plans.size(); ++r) {
      const fsefi::InjectionPlan& plan = plans[r];
      // The first flip fires during the filtered op at index op_index;
      // the prefix up to this boundary is fault-free iff fewer filtered
      // ops have executed by then. Points are sorted, so bounding the
      // first bounds every later fault of the timeline too.
      if (!plan.points.empty() &&
          rec.profiles[r].matching(plan.kinds, plan.regions) >
              plan.points.front().op_index) {
        eligible = false;
        break;
      }
      // Resuming at iteration R fires boundary callbacks for records
      // R + 1 onward: a state fault at boundary b is preserved iff
      // rec.iter < b.
      if (!plan.state_faults.empty() &&
          rec.iter >= plan.state_faults.front().boundary) {
        eligible = false;
        break;
      }
    }
    if (eligible && (best == nullptr || rec.iter > best->iter)) best = &rec;
  }
  return best;
}

std::unique_ptr<CheckpointData> assemble_checkpoints(
    CheckpointCapture&& cap) {
  if (cap.ranks.empty()) return nullptr;
  const std::size_t nbound = cap.ranks.front().size();
  if (nbound == 0) return nullptr;
  for (const auto& rank : cap.ranks) {
    if (rank.size() != nbound) {
      throw std::runtime_error(
          "golden capture: ranks disagree on boundary count");
    }
  }
  auto data = std::make_unique<CheckpointData>();
  data->nranks = static_cast<int>(cap.ranks.size());
  data->state_reals = std::move(cap.state_reals);
  data->boundaries.resize(nbound);
  for (std::size_t b = 0; b < nbound; ++b) {
    BoundaryRecord& rec = data->boundaries[b];
    rec.iter = cap.ranks.front()[b].iter;
    const bool stored = !cap.ranks.front()[b].state.empty();
    rec.profiles.reserve(cap.ranks.size());
    rec.digests.reserve(cap.ranks.size());
    if (stored) rec.state.reserve(cap.ranks.size());
    for (auto& rank : cap.ranks) {
      RankBoundary& rb = rank[b];
      if (rb.iter != rec.iter) {
        throw std::runtime_error(
            "golden capture: ranks disagree on boundary iteration");
      }
      if (rb.state.empty() == stored) {
        throw std::runtime_error(
            "golden capture: ranks disagree on stored boundaries");
      }
      rec.profiles.push_back(rb.profile);
      rec.digests.push_back(rb.digest);
      if (stored) rec.state.push_back(std::move(rb.state));
    }
  }
  return data;
}

int CaptureControl::begin(std::span<const apps::StateView> views) {
  std::uint64_t reals = 0;
  for (const apps::StateView& v : views) {
    if (v.kind == apps::StateView::Kind::Reals) reals += v.count;
  }
  state_reals_ = reals;
  return 0;
}

bool CaptureControl::boundary(simmpi::Comm&, int iter,
                              std::span<const apps::StateView> views) {
  out_.push_back({});
  RankBoundary& rec = out_.back();
  rec.iter = iter + 1;
  if (const fsefi::FaultContext* ctx = fsefi::current_context()) {
    rec.profile = ctx->profile();
  }
  rec.digest = digest_views(views);
  if (rec.iter % stride_ == 0) {
    rec.state = serialize_views(views);
    ++stored_;
  }
  // Adaptive thinning: once the stored set exceeds the budget, double the
  // stride and drop snapshots that no longer conform. Depends only on the
  // boundary sequence, so every rank converges on the same subset.
  while (stored_ > budget_) {
    stride_ *= 2;
    stored_ = 0;
    for (RankBoundary& b : out_) {
      if (b.state.empty()) continue;
      if (b.iter % stride_ == 0) {
        ++stored_;
      } else {
        b.state.clear();
        b.state.shrink_to_fit();
      }
    }
  }
  return true;
}

namespace {

/// Flip `width` bits of the primary value of the `element`-th Real across
/// the views (declaration order; Doubles views are not part of the sample
/// space). The shadow keeps the fault-free value, so divergence tracking
/// sees the corruption immediately.
void apply_state_fault(const fsefi::StateFault& fault,
                       std::span<const apps::StateView> views) {
  std::uint64_t base = 0;
  for (const apps::StateView& v : views) {
    if (v.kind != apps::StateView::Kind::Reals) continue;
    if (fault.element < base + v.count) {
      fsefi::Real& r = v.as_reals()[static_cast<std::size_t>(
          fault.element - base)];
      r = fsefi::Real::corrupted(
          fsefi::flip_bits(r.value(), fault.bit, fault.width), r.shadow());
      if (fsefi::FaultContext* ctx = fsefi::current_context()) {
        ctx->note_external_taint();
      }
      telemetry::count(telemetry::Counter::ScenarioStateFlips);
      telemetry::trace_instant("scenario", "state_flip", "element",
                               fault.element);
      return;
    }
    base += v.count;
  }
  throw std::logic_error(
      "state fault element beyond the rank's live-state Reals");
}

}  // namespace

int FastForwardControl::begin(std::span<const apps::StateView> views) {
  if (resume_ == nullptr) return 0;
  restore_views(resume_->state[static_cast<std::size_t>(rank_)].bytes(),
                views);
  if (fsefi::FaultContext* ctx = fsefi::current_context()) {
    ctx->fast_forward(resume_->profiles[static_cast<std::size_t>(rank_)]);
  }
  return resume_->iter;
}

bool FastForwardControl::boundary(simmpi::Comm& comm, int iter,
                                  std::span<const apps::StateView> views) {
  // Inject before the quiet check: a boundary that just received a flip
  // cannot digest-match the golden run, and must not.
  while (next_state_ < plan_.state_faults.size() &&
         plan_.state_faults[next_state_].boundary == iter + 1) {
    apply_state_fault(plan_.state_faults[next_state_], views);
    ++next_state_;
  }
  int quiet = 0;
  const fsefi::FaultContext* ctx = fsefi::current_context();
  if (data_ != nullptr && ctx != nullptr &&
      ctx->injections_done() == plan_.points.size() &&
      ctx->payload_flips_done() == plan_.payload_points.size() &&
      next_state_ == plan_.state_faults.size()) {
    const BoundaryRecord* rec = data_->find(iter + 1);
    if (rec != nullptr && !views_tainted(views) &&
        digest_views(views) ==
            rec->digests[static_cast<std::size_t>(rank_)]) {
      quiet = 1;
    }
  }
  if (comm.allreduce_value(quiet, simmpi::Min{}) == 0) return true;
  exit_iter_ = iter + 1;
  return false;
}

}  // namespace resilience::harness
