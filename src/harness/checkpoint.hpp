// Golden checkpoints + trial fast-forward (DESIGN.md §9).
//
// Every trial of a campaign is bit-identical to the golden run up to its
// injection op (the determinism DESIGN §5.2 already relies on), and most
// injected faults die locally within a few iterations (the bimodal CG/FT
// contamination histograms). This layer exploits both ends:
//
//   * golden capture — during the fault-free pre-pass, CaptureControl
//     records per boundary and per rank the absolute dynamic-op profile, a
//     cheap digest of the live state, and — at a budgeted subset of
//     boundaries — the full serialized rank state;
//   * fast-forward — a trial whose first injection lies beyond boundary k
//     restores rank state from the latest stored checkpoint <= k,
//     fast-forwards the FaultContext counters to the recorded values, and
//     resumes the loop there, skipping the fault-free prefix;
//   * early exit — post-injection, once every rank's digest equals the
//     golden digest at the same boundary and no rank holds live taint, the
//     tail would replay the golden run exactly; the trial terminates and
//     the runner synthesizes its observable outputs from the golden data.
//
// Default-on; set_checkpoint_enabled(false) selects the reference path
// (every trial replays from the start), and the differential suite and
// the pinned fixtures assert campaign results are bit-identical either
// way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "apps/trial_control.hpp"
#include "fsefi/plan.hpp"

namespace resilience::harness {

/// Whether trials use captured checkpoints (fast-forward + early exit;
/// default yes). set_checkpoint_enabled(false) disables it per process
/// (tests and benches). Golden captures themselves are unconditional:
/// their boundary metadata doubles as the ResidentState scenario's sample
/// space, which must not change shape with this switch.
[[nodiscard]] bool checkpoint_enabled() noexcept;
void set_checkpoint_enabled(bool enabled) noexcept;

/// Maximum boundaries whose full rank state a golden capture stores.
/// Digests and op profiles are kept at every boundary regardless. Stored
/// goldens record it, so a file captured under another budget (by an
/// older binary) loads as a miss.
[[nodiscard]] constexpr std::size_t checkpoint_budget() noexcept { return 8; }

// ---- state digest / serialization -----------------------------------------

/// Order-sensitive 64-bit digest of the live-state views: the primary bit
/// patterns of Real elements plus raw doubles. Equality with the golden
/// digest at the same boundary — together with a clean taint scan, which
/// makes the shadows equal to the primaries on both sides — is the
/// reconvergence test for early exit.
[[nodiscard]] std::uint64_t digest_views(
    std::span<const apps::StateView> views) noexcept;

/// True when any Real element's primary and shadow bit patterns diverge
/// (live corruption still present in the state).
[[nodiscard]] bool views_tainted(
    std::span<const apps::StateView> views) noexcept;

/// Raw-byte snapshot of the views, in order (Real elements keep their
/// shadows; in a golden run shadow == primary).
[[nodiscard]] std::vector<std::byte> serialize_views(
    std::span<const apps::StateView> views);

/// Copy a snapshot back into the views. Throws std::runtime_error when
/// the byte counts do not line up (view shape changed since capture).
void restore_views(std::span<const std::byte> bytes,
                   std::span<const apps::StateView> views);

// ---- checkpoint store ------------------------------------------------------

/// Byte storage of one rank's checkpoint state: either owned (captured in
/// this process) or borrowed from an mmap'd golden-v2 store file. A borrowed span's mapping is pinned by
/// the enclosing CheckpointData's `backing`, so the fast-forward restore
/// memcpys checkpoint bytes exactly once — mapping to live StateViews —
/// with no intermediate owned copy.
class StateBytes {
 public:
  StateBytes() = default;
  /*implicit*/ StateBytes(std::vector<std::byte> owned)
      : owned_(std::move(owned)) {}

  [[nodiscard]] static StateBytes borrowed(
      std::span<const std::byte> bytes) noexcept {
    StateBytes s;
    s.borrowed_ = bytes;
    return s;
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return borrowed_.data() != nullptr
               ? borrowed_
               : std::span<const std::byte>(owned_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes().size(); }
  [[nodiscard]] bool is_borrowed() const noexcept {
    return borrowed_.data() != nullptr;
  }

  friend bool operator==(const StateBytes& a, const StateBytes& b) noexcept {
    const auto x = a.bytes();
    const auto y = b.bytes();
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size()) == 0);
  }

 private:
  std::vector<std::byte> owned_;
  std::span<const std::byte> borrowed_{};
};

/// One recorded boundary of the golden run. `iter` is the iteration a
/// restored trial resumes at: the boundary at the end of iteration i is
/// record iter i + 1.
struct BoundaryRecord {
  int iter = 0;
  std::vector<fsefi::OpCountProfile> profiles;  ///< per rank, absolute
  std::vector<std::uint64_t> digests;           ///< per rank
  /// Per-rank full state snapshots; empty at boundaries outside the
  /// storage budget.
  std::vector<StateBytes> state;

  [[nodiscard]] bool stored() const noexcept { return !state.empty(); }
};

/// Everything a golden capture recorded for one (app, nranks) deployment,
/// cached inside GoldenRun (and therefore shared through GoldenCache).
struct CheckpointData {
  int nranks = 0;
  /// Boundary records in execution order, iters strictly increasing.
  std::vector<BoundaryRecord> boundaries;
  /// Per-rank count of fsefi::Real elements in the live-state views
  /// (Doubles views excluded) — the ResidentState scenario sample space,
  /// recorded once at begin() (the view shape is fixed for the run).
  std::vector<std::uint64_t> state_reals;
  /// Golden final outputs, for synthesizing an early-exited trial's
  /// observables: rank-0 signature, iteration count, per-rank profiles.
  std::vector<double> signature;
  int iterations = 0;
  std::vector<fsefi::OpCountProfile> final_profiles;
  /// Keeps the storage behind borrowed state spans alive (the golden-v2
  /// loader parks its MappedFile here). Owning records leave it null; it
  /// is never serialized.
  std::shared_ptr<const void> backing;

  /// The record whose resume iteration is `iter`, or nullptr.
  [[nodiscard]] const BoundaryRecord* find(int iter) const noexcept;
};

/// The latest stored boundary every armed rank provably reaches before
/// its first injection fires, or nullptr when no stored boundary
/// qualifies. A boundary is provably before EVERY planned fault when, per
/// armed rank: the golden filtered-op count at the boundary <= the first
/// register point's op index (the fault-free prefix covers it — points
/// are sorted, so this bounds all of them); the boundary strictly
/// precedes the earliest resident-state fault (restoring at or past it
/// would skip the flip); and the plan has no payload faults at all (the
/// delivered-Real stream position is not recorded per boundary, so no
/// restore can be proven safe).
[[nodiscard]] const BoundaryRecord* select_resume(
    const CheckpointData& data,
    const std::vector<fsefi::InjectionPlan>& plans) noexcept;

// ---- golden capture --------------------------------------------------------

/// Per-rank record of one boundary, written by CaptureControl on the rank's
/// fiber; the runner assembles the per-rank streams into CheckpointData.
struct RankBoundary {
  int iter = 0;
  fsefi::OpCountProfile profile;
  std::uint64_t digest = 0;
  std::vector<std::byte> state;  ///< empty when outside the storage budget
};

/// Capture sink shared by one golden run's ranks; each rank writes
/// only its own slot.
struct CheckpointCapture {
  std::vector<std::vector<RankBoundary>> ranks;
  /// Per-rank Real-element counts of the state views (see
  /// CheckpointData::state_reals), recorded at begin().
  std::vector<std::uint64_t> state_reals;
  std::size_t budget = 8;
};

/// Merge the per-rank capture streams. Returns nullptr when no boundaries
/// were recorded (an app without boundary hooks); throws
/// std::runtime_error when ranks disagree on the boundary sequence.
std::unique_ptr<CheckpointData> assemble_checkpoints(CheckpointCapture&& cap);

// ---- trial controls --------------------------------------------------------

/// Golden-capture controller: records every boundary, storing full state
/// at boundaries whose resume iteration is a multiple of the current
/// stride. The stride doubles (and non-conforming snapshots are dropped)
/// whenever the stored set would exceed the budget — a deterministic rule
/// that depends only on the boundary sequence, so every rank keeps the
/// same subset.
class CaptureControl final : public apps::TrialControl {
 public:
  CaptureControl(std::vector<RankBoundary>& out, std::uint64_t& state_reals,
                 std::size_t budget)
      : out_(out),
        state_reals_(state_reals),
        budget_(budget == 0 ? 1 : budget) {}

  int begin(std::span<const apps::StateView> views) override;
  bool boundary(simmpi::Comm& comm, int iter,
                std::span<const apps::StateView> views) override;

 private:
  std::vector<RankBoundary>& out_;
  std::uint64_t& state_reals_;
  std::size_t budget_;
  int stride_ = 1;
  std::size_t stored_ = 0;
};

/// Trial controller: restores the selected checkpoint in begin(), applies
/// the rank's planned resident-state faults as their boundaries come up,
/// and runs the early-exit consensus at every boundary. The consensus is
/// a Min-allreduce of the per-rank quiet flag on the app's world comm —
/// abort-aware like every simmpi collective, and uniform across ranks
/// (each rank either reaches the boundary or the job is already
/// aborting). `data` may be null (checkpoints disabled while the plan
/// still carries state faults): the control then only injects — no
/// restore, never quiet — but still joins the consensus so the collective
/// stays uniform.
class FastForwardControl final : public apps::TrialControl {
 public:
  FastForwardControl(const CheckpointData* data, const BoundaryRecord* resume,
                     int rank, const fsefi::InjectionPlan& plan)
      : data_(data), resume_(resume), rank_(rank), plan_(plan) {}

  int begin(std::span<const apps::StateView> views) override;
  bool boundary(simmpi::Comm& comm, int iter,
                std::span<const apps::StateView> views) override;

  [[nodiscard]] bool restored() const noexcept { return resume_ != nullptr; }
  [[nodiscard]] bool early_exit() const noexcept { return exit_iter_ >= 0; }
  /// Resume iteration of the exit boundary (valid when early_exit()).
  [[nodiscard]] int exit_iter() const noexcept { return exit_iter_; }

 private:
  const CheckpointData* data_;
  const BoundaryRecord* resume_;
  int rank_;
  const fsefi::InjectionPlan& plan_;
  std::size_t next_state_ = 0;  ///< state faults applied so far
  int exit_iter_ = -1;
};

}  // namespace resilience::harness
