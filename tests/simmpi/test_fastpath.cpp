// Failure-delivery and equivalence tests for the fused collectives and
// the envelope pool.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <tuple>
#include <vector>

#include "simmpi/collective.hpp"
#include "simmpi/runtime.hpp"
#include "util/fiber_tls.hpp"

namespace resilience::simmpi {
namespace {

// ---- a Transportable type whose receive hook logs and corrupts -----------

/// A value whose TransportTraits record every delivery on the receiving
/// rank and corrupt one chosen element, as a payload fault would.
struct Traced {
  double v = 0.0;
};

struct TracedSum {
  Traced operator()(const Traced& a, const Traced& b) const {
    return {a.v + b.v};
  }
};

/// (rank, call index, count, first value) per on_receive.
using DeliveryLog = std::vector<std::tuple<int, int, std::size_t, double>>;

/// One rank's receive-side state, reached through a fiber-local slot so
/// that a hook the fused combiner replays on another rank's stack still
/// lands on the rank the delivery belongs to.
struct RankProbe {
  int rank = -1;
  int calls = 0;
  DeliveryLog log;
  int flip_call = -1;  ///< call index whose middle element is corrupted
};

thread_local RankProbe* tl_probe = nullptr;
[[maybe_unused]] const std::size_t kProbeSlot = util::FiberTlsRegistry::add({
    []() noexcept -> void* { return tl_probe; },
    [](void* value) noexcept { tl_probe = static_cast<RankProbe*>(value); },
});

}  // namespace

template <>
struct TransportTraits<Traced> {
  static void on_receive(std::span<Traced> values) noexcept {
    RankProbe* probe = tl_probe;
    if (probe == nullptr) return;
    const int call = probe->calls++;
    probe->log.emplace_back(probe->rank, call, values.size(),
                            values.empty() ? 0.0 : values.front().v);
    if (call == probe->flip_call && !values.empty()) {
      values[values.size() / 2].v += 1000.0;
    }
  }
  struct LibraryGuard {};
};

namespace {

/// Restores fused collectives (the default) on scope exit.
struct FusionGuard {
  ~FusionGuard() { detail::set_fused_collectives_enabled(true); }
};

/// Run `body` with fused collectives on.
RunResult run_fused(int nranks, const std::function<void(Comm&)>& body) {
  detail::set_fused_collectives_enabled(true);
  return Runtime::run(nranks, body);
}

TEST(FusedCollectives, AbortMidAllreduceWakesParkedPeers) {
  // A rank that throws while its peers are parked at the fused meeting
  // point must wake them: abort teardown unparks every fiber.
  const auto result = run_fused(4, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("injected failure");
    double v = 1.0;
    double out = 0.0;
    comm.allreduce(std::span<const double>(&v, 1),
                   std::span<double>(&out, 1));
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 2);
  EXPECT_EQ(result.error, "injected failure");
}

TEST(FusedCollectives, MissingRankDeadlocksDeterministically) {
  // One rank never joins the collective. The fiber scheduler declares the
  // deadlock the moment no fiber is runnable — deterministically, with no
  // timeout involved.
  const auto result = run_fused(2, [](Comm& comm) {
    // Rank 1 never arrives.
    if (comm.rank() == 0) (void)comm.allreduce_value(0);
  });
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 0);
}

TEST(FusedCollectives, CollectiveSizeMismatchAbortsJob) {
  // The combiner detects the mismatch, so the reporting rank depends on
  // arrival order (unlike the mailbox path, where the receiver reports);
  // the job-level verdict is what matters.
  const auto result = run_fused(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      (void)comm.allreduce_value(1.0);
    } else {
      const std::vector<double> in(3);  // wrong size for rank 0's payload
      std::vector<double> out(3);
      comm.allreduce(std::span<const double>(in), std::span<double>(out));
    }
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.error.find("size mismatch"), std::string::npos)
      << result.error;
}

TEST(FusedCollectives, ResultsAndStatsMatchMailboxPath) {
  // Differential run of a mixed collective sequence: fused allreduces
  // between the mailbox bcast and reduce, which share their sequence
  // numbers, against the all-mailbox run. Both must produce bit-identical
  // values and identical logical transport stats.
  const auto body = [](std::vector<double>* out) {
    return [out](Comm& comm) {
      std::vector<double> v(4, 0.25 * (comm.rank() + 1));
      std::vector<double> sum(4);
      comm.allreduce(std::span<const double>(v), std::span<double>(sum));
      (void)comm.allreduce_value(0);
      double top = comm.rank() == 1 ? sum[0] * 3 : 0.0;
      comm.bcast(std::span<double>(&top, 1), 1);
      std::vector<double> reduced(comm.rank() == 0 ? 4 : 0);
      comm.reduce(std::span<const double>(sum), std::span<double>(reduced),
                  0, [](double a, double b) { return a * b; });
      if (comm.rank() == 0) {
        *out = reduced;
        out->push_back(top);
      }
    };
  };

  FusionGuard guard;
  detail::set_fused_collectives_enabled(true);
  std::vector<double> fused_out;
  const auto fused = Runtime::run(6, body(&fused_out));

  detail::set_fused_collectives_enabled(false);
  std::vector<double> mailbox_out;
  const auto mailbox = Runtime::run(6, body(&mailbox_out));

  EXPECT_TRUE(fused.ok);
  EXPECT_TRUE(mailbox.ok);
  EXPECT_EQ(fused_out, mailbox_out);  // bit-identical values
  EXPECT_EQ(fused.messages_sent, mailbox.messages_sent);
  EXPECT_EQ(fused.bytes_sent, mailbox.bytes_sent);
}

TEST(FusedCollectives, SplitCommunicatorsUseDistinctFusedGroups) {
  const auto result = run_fused(8, [](Comm& comm) {
    Comm row = comm.split(comm.rank() / 4, comm.rank() % 4);
    const int row_sum = row.allreduce_value(1);
    EXPECT_EQ(row_sum, 4);
    (void)row.allreduce_value(0);
    const int world_sum = comm.allreduce_value(1);
    EXPECT_EQ(world_sum, 8);
  });
  EXPECT_TRUE(result.ok);
}

// ---- fused vs mailbox, per collective ---------------------------------------

enum class Coll { Allreduce, Allgather, Alltoall };

/// What one job observed: each world rank's delivery log and output bytes,
/// and the job's logical transport stats.
struct Observed {
  std::vector<DeliveryLog> logs;
  std::vector<std::vector<double>> outputs;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  bool ok = false;
};

/// Two rounds of `coll` on the world communicator or on the halves of a
/// split one (reversed key order, so local and world ranks differ). The
/// last world rank corrupts its second delivery.
Observed run_collective(Coll coll, int nranks, bool split, bool fused) {
  FusionGuard guard;
  detail::set_fused_collectives_enabled(fused);
  Observed seen;
  std::vector<RankProbe> probes(static_cast<std::size_t>(nranks));
  seen.outputs.resize(static_cast<std::size_t>(nranks));
  const auto result = Runtime::run(nranks, [&](Comm& world) {
    RankProbe& probe = probes[static_cast<std::size_t>(world.rank())];
    probe.rank = world.rank();
    probe.flip_call = world.rank() == nranks - 1 ? 1 : -1;
    tl_probe = &probe;
    auto body = [&](Comm& comm) {
      const auto p = static_cast<std::size_t>(comm.size());
      auto& out = seen.outputs[static_cast<std::size_t>(world.rank())];
      for (int round = 0; round < 2; ++round) {
        const std::size_t block = coll == Coll::Allreduce ? 5 : 3;
        const std::size_t in_len = coll == Coll::Alltoall ? block * p : block;
        std::vector<Traced> in(in_len);
        for (std::size_t i = 0; i < in.size(); ++i) {
          in[i].v = 100.0 * world.rank() + 10.0 * round + static_cast<double>(i);
        }
        std::vector<Traced> result_buf(coll == Coll::Allreduce ? block
                                                               : block * p);
        switch (coll) {
          case Coll::Allreduce:
            comm.allreduce(std::span<const Traced>(in),
                           std::span<Traced>(result_buf), TracedSum{});
            break;
          case Coll::Allgather:
            comm.allgather(std::span<const Traced>(in),
                           std::span<Traced>(result_buf));
            break;
          case Coll::Alltoall:
            comm.alltoall(std::span<const Traced>(in),
                          std::span<Traced>(result_buf));
            break;
        }
        for (const Traced& t : result_buf) out.push_back(t.v);
      }
    };
    if (split) {
      Comm half = world.split(world.rank() % 2, -world.rank());
      body(half);
    } else {
      body(world);
    }
    tl_probe = nullptr;
  });
  seen.ok = result.ok;
  seen.messages = result.messages_sent;
  seen.bytes = result.bytes_sent;
  for (auto& probe : probes) seen.logs.push_back(std::move(probe.log));
  return seen;
}

TEST(FusedCollectives, SingleArrivalCollectivesMatchMailboxDecomposition) {
  // The fused allreduce, allgather and alltoall against their mailbox
  // decompositions: the same deliveries on the same ranks in the same
  // order, the same corrupted outputs and the same logical stats.
  for (const Coll coll : {Coll::Allreduce, Coll::Allgather, Coll::Alltoall}) {
    for (const int nranks : {3, 4, 7, 64}) {
      for (const bool split : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "collective " << static_cast<int>(coll) << ", "
                     << nranks << " ranks, " << (split ? "split" : "world"));
        const Observed fused = run_collective(coll, nranks, split, true);
        const Observed mailbox = run_collective(coll, nranks, split, false);
        ASSERT_TRUE(fused.ok);
        ASSERT_TRUE(mailbox.ok);
        EXPECT_EQ(fused.logs, mailbox.logs);
        EXPECT_EQ(fused.outputs, mailbox.outputs);  // bit-identical values
        EXPECT_EQ(fused.messages, mailbox.messages);
        EXPECT_EQ(fused.bytes, mailbox.bytes);
        // The corrupted delivery happened and changed some output.
        bool flipped = false;
        for (const auto& [rank, call, count, first] :
             fused.logs[static_cast<std::size_t>(nranks - 1)]) {
          flipped = flipped || (call == 1 && count > 0);
        }
        EXPECT_TRUE(flipped);
      }
    }
  }
}

TEST(FusedCollectives, AbortMidAllgatherAndAlltoallWakesParkedPeers) {
  for (const Coll coll : {Coll::Allgather, Coll::Alltoall}) {
    const auto result = run_fused(5, [coll](Comm& comm) {
      if (comm.rank() == 3) throw std::runtime_error("injected failure");
      const std::vector<double> in(comm.size(), 1.0);
      std::vector<double> out(static_cast<std::size_t>(comm.size()) *
                              comm.size());
      if (coll == Coll::Allgather) {
        comm.allgather(std::span<const double>(in), std::span<double>(out));
      } else {
        out.resize(in.size());
        comm.alltoall(std::span<const double>(in), std::span<double>(out));
      }
    });
    EXPECT_TRUE(result.aborted);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.failed_rank, 3);
    EXPECT_EQ(result.error, "injected failure");
  }
}

TEST(FusedCollectives, AlltoallAgainstAllgatherIsAnSpmdMismatch) {
  // Both ops consume the same sequence number, so only the op recorded
  // with the arrival tells them apart.
  bool mismatch_seen = false;
  const auto result = run_fused(4, [&](Comm& comm) {
    const std::vector<int> in(4, comm.rank());
    std::vector<int> out(comm.rank() == 0 ? 4 : 16);
    if (comm.rank() == 0) {
      comm.alltoall(std::span<const int>(in), std::span<int>(out));
      return;
    }
    try {
      comm.allgather(std::span<const int>(in), std::span<int>(out));
    } catch (const UsageError&) {
      mismatch_seen = true;
      throw;
    }
  });
  EXPECT_TRUE(mismatch_seen);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.failed_rank, 1);
  EXPECT_NE(result.error.find("SPMD sequence mismatch"), std::string::npos)
      << result.error;
}

TEST(FusedCollectives, InThatOverlapsAnotherOutBlockIsRejected) {
  // The fused combine reads a peer's `in` after writing earlier
  // receivers' `out`, so aliasing across blocks is rejected on both paths;
  // sharing only the rank's own block stays legal.
  FusionGuard guard;
  for (const bool fused : {true, false}) {
    SCOPED_TRACE(fused ? "fused" : "mailbox");
    detail::set_fused_collectives_enabled(fused);
    const auto result = Runtime::run(3, [](Comm& comm) {
      const auto p = static_cast<std::size_t>(comm.size());
      const auto me = static_cast<std::size_t>(comm.rank());
      std::vector<int> buf(p * 2, -1);
      std::span<int> out(buf);
      // alltoall in place: block j of `in` is block j of `out`.
      EXPECT_THROW(comm.alltoall(std::span<const int>(out), out), UsageError);
      // allgather from the next rank's block.
      EXPECT_THROW(comm.allgather(std::span<const int>(out.subspan(
                                      ((me + 1) % p) * 2, 2)),
                                  out),
                   UsageError);
      // In place from this rank's own block is fine.
      auto own = out.subspan(me * 2, 2);
      own[0] = 10 * comm.rank();
      own[1] = 10 * comm.rank() + 1;
      comm.allgather(std::span<const int>(own), out);
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(buf[r * 2], 10 * static_cast<int>(r));
        EXPECT_EQ(buf[r * 2 + 1], 10 * static_cast<int>(r) + 1);
      }
    });
    EXPECT_TRUE(result.ok) << result.error;
  }
}

TEST(FusedGroupUnit, DivergedEpochIsReportedNotCollected) {
  // A rank arriving with an epoch other than the one the first arriver
  // pinned has diverged from SPMD order; arrive() reports it instead of
  // mixing two collectives in one slot table.
  detail::FusedGroup group;
  std::byte payload{};
  detail::Arrival arrival{&payload, &payload, 1, nullptr};
  EXPECT_EQ(group.arrive(0, 7, arrival, 3),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(1, 8, arrival, 3),
            detail::FusedGroup::ArriveOutcome::EpochMismatch);
  // The diverged arrival was not recorded: epoch 7 still completes when
  // its real participants show up.
  EXPECT_EQ(group.arrive(1, 7, arrival, 3),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(2, 7, arrival, 3),
            detail::FusedGroup::ArriveOutcome::Combiner);
}

TEST(EnvelopePool, SteadyTrafficRecyclesBuffers) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    double v = comm.rank();
    for (int round = 0; round < 50; ++round) {
      if (comm.rank() == 0) {
        comm.send_value(1, 0, v);
        v = comm.recv_value<double>(1, 1);
      } else {
        v = comm.recv_value<double>(0, 0);
        comm.send_value(0, 1, v + 1);
      }
    }
  });
  EXPECT_TRUE(result.ok);
  // 100 point-to-point messages in two buffers: everything past the first
  // envelope per mailbox reuses pooled capacity.
  EXPECT_EQ(result.messages_sent, 100u);
  EXPECT_LE(result.pool_allocs, 4u);
  EXPECT_GE(result.pool_reuses, 96u);
}

TEST(EnvelopePool, ReusesBuffersAfterAbortedJob) {
  // A job that aborts leaves envelopes queued and buffers checked out;
  // the next job must still pool cleanly (fresh JobState, fresh pools)
  // and the aborted job's stats must still be reported.
  const auto aborted = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) comm.send_value(1, 0, i);
      throw std::runtime_error("die with traffic in flight");
    }
    // Rank 0 runs first and aborts before rank 1 ever receives, so the
    // queued traffic is never consumed: AbortError straight away.
    EXPECT_THROW(comm.recv_value<int>(0, 0), AbortError);
    throw AbortError();
  });
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.failed_rank, 0);
  EXPECT_GE(aborted.pool_allocs, 1u);

  const auto clean = Runtime::run(2, [](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const double sum = comm.allreduce_value(1.0);
      EXPECT_DOUBLE_EQ(sum, 2.0);
    }
  });
  EXPECT_TRUE(clean.ok);
}

}  // namespace
}  // namespace resilience::simmpi
