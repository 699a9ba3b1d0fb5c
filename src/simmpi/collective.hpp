// Fused collectives for the fiber scheduler.
//
// As mailbox traffic a collective is a storm of point-to-point envelopes:
// every rank blocks in turn, and the tree structure costs one park/wake
// per edge. With fibers the whole picture simplifies: each participating
// fiber *arrives* at its group's FusedGroup carrying pointers to its
// contribution and its output slot, then parks. The last arriver —
// already running, with every other participant parked — executes the
// entire combine in one pass on its own stack, marks the epoch done and
// wakes everyone.
//
// Every collective the apps call arrives exactly once, even where its
// logical decomposition has several phases: allreduce is a reduce tree
// followed by a bcast tree, allgather a gather onto rank 0 followed by a
// bcast tree, alltoall p·(p−1) personalized blocks. The combiner runs
// those phases back to back in the decomposition's order. Logical
// instrumentation is preserved exactly: each rank records its own logical
// sends *before* arriving (mirroring the mailbox decomposition byte for
// byte), each fused op consumes the same collective sequence numbers as
// its mailbox decomposition, and the combiner replays per-rank receive
// hooks in each rank's mailbox order under BorrowFiberTls so taint and
// telemetry land on the logical rank that would have executed them.
//
// Safety of the borrowed pointers and TLS banks: every non-last
// arriver's Arrival points into its own fiber stack or buffers
// (contributions, accumulators, user output slots), and the combiner
// swaps each arriver's saved thread-local bank in while replaying that
// rank's instrumentation. Both are safe because the job runs on one
// thread: the combiner never parks, so no other fiber — and nothing that
// could wake or resume an arrived one — runs until the combine is
// complete.
//
// Epochs: collectives on one communicator are totally ordered by the
// Comm's collective sequence number. The first arriver of an epoch pins
// it and the op it runs; a rank arriving with a different epoch or op has
// diverged from SPMD order and is reported as a usage error. `done_epoch_`
// is monotonic, so a waiter's predicate is simply done_epoch() >= its
// epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::simmpi::detail {

/// The collective an arrival belongs to; ranks of one epoch must agree.
enum class FusedOp : std::uint8_t {
  Allreduce,
  Allgather,
  Alltoall,
};

/// One rank's contribution to a fused collective, valid while its fiber
/// stays parked (or, for the combiner, for the duration of the combine).
struct Arrival {
  std::byte* data = nullptr;  ///< this rank's input contribution
  std::byte* out = nullptr;   ///< where the combiner writes this rank's result
  std::size_t len = 0;        ///< contribution size in bytes
  Fiber* fiber = nullptr;     ///< arriving fiber, for BorrowFiberTls
  std::size_t out_len = 0;    ///< result size in bytes
  FusedOp op = FusedOp::Allreduce;
};

/// Fused-collective meeting point for one communicator (one per salt).
class FusedGroup {
 public:
  enum class ArriveOutcome { Waiter, Combiner, EpochMismatch };

  /// Record `vrank`'s arrival for `epoch`. The last arriver becomes the
  /// combiner and must run the combine before it next parks; arrival
  /// slots stay valid exactly that long. An arrival whose op differs
  /// from the epoch's first arrival is a mismatch too: two ranks running
  /// different collectives at the same sequence number.
  ArriveOutcome arrive(int vrank, std::uint64_t epoch, const Arrival& arrival,
                       int group_size) {
    if (epoch <= done_epoch_) {
      // A rank arriving with an already-completed epoch has fallen behind
      // the group's SPMD sequence (it skipped collectives its peers ran).
      // Reject before recording anything: pinning current_epoch_ to the
      // stale value would corrupt group state and misreport the error at
      // a healthy rank's next collective instead of the diverged rank.
      return ArriveOutcome::EpochMismatch;
    }
    if (arrived_ == 0) {
      current_epoch_ = epoch;
      current_op_ = arrival.op;
      if (arrivals_.size() < static_cast<std::size_t>(group_size)) {
        arrivals_.resize(static_cast<std::size_t>(group_size));
      }
    } else if (epoch != current_epoch_ || arrival.op != current_op_) {
      return ArriveOutcome::EpochMismatch;
    }
    arrivals_[static_cast<std::size_t>(vrank)] = arrival;
    ++arrived_;
    if (arrived_ == group_size) {
      arrived_ = 0;  // slots are consumed by this combine; epoch may reuse
      return ArriveOutcome::Combiner;
    }
    return ArriveOutcome::Waiter;
  }

  /// The combiner's view of a participant's arrival.
  [[nodiscard]] Arrival& slot(int vrank) {
    return arrivals_[static_cast<std::size_t>(vrank)];
  }

  /// Combiner only, after all outputs are written: publish the epoch and
  /// wake every parked participant.
  void complete(std::uint64_t epoch, FiberScheduler& scheduler) {
    done_epoch_ = epoch;
    telemetry::count(telemetry::Counter::SimmpiFusedCollectives);
    waiters_.wake_all(scheduler);
  }

  [[nodiscard]] std::uint64_t done_epoch() const noexcept {
    return done_epoch_;
  }
  [[nodiscard]] WaitList& waiters() noexcept { return waiters_; }

 private:
  WaitList waiters_;
  std::vector<Arrival> arrivals_;
  int arrived_ = 0;
  std::uint64_t current_epoch_ = 0;
  FusedOp current_op_ = FusedOp::Allreduce;
  std::uint64_t done_epoch_ = 0;
};

/// Lazily materialised FusedGroup per communicator salt; owned by the
/// JobState so split communicators get distinct meeting points.
class FusedHub {
 public:
  FusedGroup& group(std::uint32_t salt) {
    auto& slot = groups_[salt];
    if (slot == nullptr) slot = std::make_unique<FusedGroup>();
    return *slot;
  }

 private:
  std::unordered_map<std::uint32_t, std::unique_ptr<FusedGroup>> groups_;
};

}  // namespace resilience::simmpi::detail
