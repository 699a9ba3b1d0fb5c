// Scheduler edge cases: deterministic deadlock with zero runnable fibers,
// abort teardown mid-collective, a 512-rank smoke job, pooled resource
// reuse across an aborted job, and replay of the single-threaded schedule.
// Then the switch contract: what a fiber switch must carry across a
// park/resume (FP control state, stack alignment, unwind state) and the
// guard page under each stack.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/collective.hpp"
#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

TEST(FiberScheduler, ZeroRunnableRanksIsDeadlock) {
  // Both ranks block receiving a message nobody will send. The scheduler
  // must declare the deadlock the moment its run queue drains.
  const auto result = Runtime::run(
      2, [](Comm& comm) { comm.recv_value<int>(1 - comm.rank(), 0); });
  EXPECT_TRUE(result.deadlocked);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.failed_rank, 0);  // first in run-queue order
}

TEST(FiberScheduler, AbortMidCollectiveTearsDownEveryParkedRank) {
  const auto result = Runtime::run(16, [](Comm& comm) {
    if (comm.rank() == 5) throw std::runtime_error("rank 5 dies");
    const double sum = comm.allreduce_value(1.0);
    (void)sum;
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 5);
  EXPECT_EQ(result.error, "rank 5 dies");

  // The job's scheduler state dies with the job: a follow-up job on the
  // same process must be unaffected.
  const auto clean = Runtime::run(16, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_value(1.0), 16.0);
  });
  EXPECT_TRUE(clean.ok);
}

TEST(FiberScheduler, AbortRacingActiveCombinesStaysCoherent) {
  // A rank outside a sub-communicator dies while the group streams fused
  // allreduce combines between mailbox bcasts: its abort lands with group
  // members parked at a meeting point or in a receive, and their TLS
  // banks borrowed by earlier combines.
  // Every member must be woken and torn down, and the next job must run
  // clean on the same process.
  for (int round = 0; round < 8; ++round) {
    const auto result = Runtime::run(12, [round](Comm& comm) {
      const int killer = comm.size() - 1;
      Comm sub = comm.split(comm.rank() == killer ? 1 : 0, comm.rank());
      if (comm.rank() == killer) {
        // Let the group stream collectives, then die mid-pipeline.
        for (int i = 0; i < 20 * (round + 1); ++i) {
          FiberScheduler::yield_current();
        }
        throw std::runtime_error("outsider dies");
      }
      std::vector<double> buf(256, comm.rank() + 1.0);
      std::vector<double> sum(256);
      for (int i = 0;; ++i) {
        sub.allreduce(std::span<const double>(buf), std::span<double>(sum));
        sub.bcast(std::span<double>(sum), i % sub.size());
      }
    });
    EXPECT_TRUE(result.aborted);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.failed_rank, 11);
    EXPECT_EQ(result.error, "outsider dies");
  }
  const auto clean = Runtime::run(12, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_value(1.0), 12.0);
  });
  EXPECT_TRUE(clean.ok) << clean.error;
}

TEST(FusedGroup, StaleEpochArrivalIsRejectedBeforeRecordingState) {
  // A rank re-arriving with an already-completed epoch has diverged from
  // the SPMD sequence. It must be rejected up front: recording the
  // arrival would pin current_epoch_ to the stale value and misreport
  // the divergence at a healthy rank's next collective.
  detail::FusedGroup group;
  FiberScheduler sched(0, 64 * 1024);
  const detail::Arrival arrival;
  EXPECT_EQ(group.arrive(0, 1, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(1, 1, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Combiner);
  group.complete(1, sched);
  EXPECT_EQ(group.arrive(0, 1, arrival, 2),
            detail::FusedGroup::ArriveOutcome::EpochMismatch);
  // Group state stayed clean: the next epoch still completes normally.
  EXPECT_EQ(group.arrive(0, 2, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(1, 2, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Combiner);
  group.complete(2, sched);
  EXPECT_EQ(group.done_epoch(), 2u);
}

TEST(FiberScheduler, FiveTwelveRankSmoke) {
  // 512 ranks: collectives, a ring exchange and a reduction, all on the
  // launching thread.
  const auto result = Runtime::run(512, [](Comm& comm) {
    (void)comm.allreduce_value(0);
    const int total = comm.allreduce_value(1);
    EXPECT_EQ(total, comm.size());
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    const int mine = comm.rank();
    int from_left = -1;
    comm.sendrecv(right, 3, std::span<const int>(&mine, 1), left, 3,
                  std::span<int>(&from_left, 1));
    EXPECT_EQ(from_left, left);
    const long r = comm.rank();
    long sum = 0;
    comm.allreduce(std::span<const long>(&r, 1), std::span<long>(&sum, 1));
    EXPECT_EQ(sum, 512L * 511L / 2L);
  });
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(FiberScheduler, PooledResourcesSurviveAnAbortedJob) {
  // An abort tears a job down mid-flight with ranks parked and pooled
  // resources (fiber stacks, envelope buffers) checked out. The pools
  // must hand all of it back: follow-up jobs of the same and larger
  // widths run clean.
  const auto aborted = Runtime::run(32, [](Comm& comm) {
    if (comm.rank() == 31) throw std::runtime_error("late rank dies");
    (void)comm.allreduce_value(0);
    comm.recv_value<int>(comm.rank(), 0);  // unreachable: abort wakes us
  });
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.failed_rank, 31);

  for (const int nranks : {32, 64}) {
    const auto clean = Runtime::run(nranks, [](Comm& comm) {
      const int total = comm.allreduce_value(1);
      EXPECT_EQ(total, comm.size());
      (void)comm.allreduce_value(0);
    });
    EXPECT_TRUE(clean.ok) << nranks << " ranks: " << clean.error;
  }
}

TEST(FiberScheduler, ScheduleReplaysExactly) {
  // The run queue is the only source of interleaving, so the order in
  // which ranks pass their program points — receives, yields, collective
  // arrivals — is identical on every run of a job.
  const auto trace_of = [] {
    std::vector<int> trace;
    const auto result = Runtime::run(6, [&trace](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 1; i < comm.size(); ++i) {
          const int got = comm.recv_value<int>(i, 0);
          trace.push_back(100 + got);
        }
      } else {
        for (int i = 0; i < comm.rank(); ++i) {
          FiberScheduler::yield_current();
        }
        trace.push_back(comm.rank());
        comm.send_value(0, 0, comm.rank());
      }
      (void)comm.allreduce_value(comm.rank());
      trace.push_back(200 + comm.rank());
    });
    EXPECT_TRUE(result.ok) << result.error;
    return trace;
  };
  const std::vector<int> first = trace_of();
  EXPECT_EQ(first.size(), 5u + 5u + 6u);
  for (int run = 0; run < 3; ++run) EXPECT_EQ(trace_of(), first);
}

TEST(FiberScheduler, TinyStacksStillRunLeafWork) {
  // The configured floor (16 KiB) plus guard page must be enough for a
  // rank that only does transport calls — the scheduler's own frames and
  // the mailbox path must not assume a deep stack.
  detail::set_fiber_stack_kb(16);
  const auto result = Runtime::run(4, [](Comm& comm) {
    EXPECT_EQ(comm.allreduce_value(1), 4);
  });
  EXPECT_TRUE(result.ok) << result.error;
  detail::set_fiber_stack_kb(0);
}

// ---- the switch contract ----------------------------------------------
//
// In every test below rank 0 arrives first at a collective and parks;
// the last rank completes it, and later ranks park at the next one. Both
// sides of each check therefore cross a real switch out and back in.

/// 1/7 divided at run time by the SSE unit (rounded per MXCSR) and by the
/// x87 unit (rounded per its control word); both quotients round down to
/// nearest, so upward rounding changes each. Out of line, so no division
/// moves across a rounding-mode change.
[[gnu::noinline]] std::pair<double, long double> seventh() {
  volatile double one = 1.0;
  volatile double seven = 7.0;
  volatile long double lone = 1.0L;
  volatile long double lseven = 7.0L;
  volatile double quotient = one / seven;
  volatile long double lquotient = lone / lseven;
  return {quotient, lquotient};
}

std::pair<double, long double> seventh_rounded_upward() {
  std::fesetround(FE_UPWARD);
  const auto result = seventh();
  std::fesetround(FE_TONEAREST);
  return result;
}

TEST(FiberSwitch, RoundingModeStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const auto nearest = seventh();
  const auto upward = seventh_rounded_upward();
  ASSERT_NE(nearest.first, upward.first);
  ASSERT_NE(nearest.second, upward.second);

  const auto result = Runtime::run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::fesetround(FE_UPWARD);
      (void)comm.allreduce_value(0);  // parks; rank 1 runs meanwhile
      EXPECT_EQ(std::fegetround(), FE_UPWARD);
      EXPECT_EQ(seventh(), upward);
      (void)comm.allreduce_value(0);  // completes it: rank 1 parked first
    } else {
      // Started after rank 0 switched to upward rounding.
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
      EXPECT_EQ(seventh(), nearest);
      (void)comm.allreduce_value(0);  // completes it
      (void)comm.allreduce_value(0);  // parks; rank 0 runs upward meanwhile
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
      EXPECT_EQ(seventh(), nearest);
    }
  });
  EXPECT_TRUE(result.ok) << result.error;
  // Rank 0 finished upward; the launching thread kept its own mode.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(seventh(), nearest);
}

/// Offset of an alignas(16) local from a 16-byte boundary. The address
/// passes through an empty asm so the compiler cannot fold the check
/// from the alignment it assumes.
[[gnu::noinline]] std::uintptr_t aligned_local_offset() {
  alignas(16) volatile unsigned char local[16] = {};
  const volatile unsigned char* address = local;
  asm volatile("" : "+r"(address));
  return reinterpret_cast<std::uintptr_t>(address) % 16;
}

TEST(FiberSwitch, StackStaysSixteenByteAligned) {
  const auto result = Runtime::run(3, [](Comm& comm) {
    EXPECT_EQ(aligned_local_offset(), 0u) << "entry, rank " << comm.rank();
    (void)comm.allreduce_value(0);
    EXPECT_EQ(aligned_local_offset(), 0u) << "resume, rank " << comm.rank();
    (void)comm.allreduce_value(0);
    EXPECT_EQ(aligned_local_offset(), 0u) << "resume, rank " << comm.rank();
  });
  EXPECT_TRUE(result.ok) << result.error;
}

[[gnu::noinline]] void throw_for(int rank) {
  throw std::runtime_error("rank " + std::to_string(rank));
}

TEST(FiberSwitch, ExceptionAfterResumeUnwindsToItsOwnRank) {
  std::vector<std::string> caught(4);
  const auto result = Runtime::run(4, [&caught](Comm& comm) {
    try {
      (void)comm.allreduce_value(0);
      throw_for(comm.rank());
    } catch (const std::runtime_error& e) {
      caught[static_cast<std::size_t>(comm.rank())] = e.what();
    }
    // Every handler finished before any peer throws again.
    (void)comm.allreduce_value(0);
  });
  EXPECT_TRUE(result.ok) << result.error;
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(caught[static_cast<std::size_t>(rank)],
              "rank " + std::to_string(rank));
  }
}

/// Recurses until the stack runs out: the volatile frame and the use of
/// the callee's result keep every level a real, non-tail call.
[[gnu::noinline]] int recurse(int depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  if (depth == std::numeric_limits<int>::max()) return 0;
  return recurse(depth + 1) + frame[0];
}

TEST(FiberSwitchDeathTest, UnboundedRecursionDiesOnTheGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        detail::set_fiber_stack_kb(16);
        (void)Runtime::run(2, [](Comm& comm) {
          (void)comm.allreduce_value(0);
          if (comm.rank() == 0) (void)recurse(0);
        });
      },
      "");
}

}  // namespace
}  // namespace resilience::simmpi
