// Unit tests of the mailbox transport primitive: matching directly on a
// Mailbox, blocking behaviour through fiber jobs.
#include "simmpi/mailbox.hpp"

#include <gtest/gtest.h>

#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

Envelope make_envelope(int source, int tag, std::size_t bytes = 8) {
  Envelope env;
  env.source = source;
  env.tag = tag;
  env.bytes.assign(bytes, std::byte{0x5a});
  return env;
}

TEST(Mailbox, PopMatchesSourceAndTag) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(1, 10));
  box.push(make_envelope(2, 20));
  const Envelope got = box.pop_matching(2, 20);
  EXPECT_EQ(got.source, 2);
  EXPECT_EQ(got.tag, 20);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, FifoWithinMatchingMessages) {
  AbortToken abort;
  Mailbox box(&abort);
  for (int i = 0; i < 3; ++i) {
    Envelope env = make_envelope(1, 7, 1);
    env.bytes[0] = static_cast<std::byte>(i);
    box.push(std::move(env));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(static_cast<int>(box.pop_matching(1, 7).bytes[0]), i);
  }
}

TEST(Mailbox, NonMatchingMessagesAreSkippedNotConsumed) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(1, 1));
  box.push(make_envelope(1, 2));
  EXPECT_EQ(box.pop_matching(1, 2).tag, 2);
  EXPECT_EQ(box.pop_matching(1, 1).tag, 1);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, BlockedPopWakesOnPush) {
  // Rank 0 parks in its receive before rank 1 has sent anything; the push
  // must make it runnable again.
  int got = -1;
  const auto result = Runtime::run(2, [&got](Comm& comm) {
    if (comm.rank() == 0) {
      got = comm.recv_value<int>(1, 9);
    } else {
      for (int i = 0; i < 3; ++i) FiberScheduler::yield_current();
      comm.send_value(0, 9, 42);
    }
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, UnmatchedPopOutsideAFiberDeadlocksAtOnce) {
  // Outside a fiber (the inline 1-rank path) nobody else can ever push,
  // so waiting would be a hang: the receive fails immediately.
  AbortToken abort;
  Mailbox box(&abort);
  EXPECT_THROW(box.pop_matching(0, 0), DeadlockError);
}

TEST(Mailbox, AbortWakesBlockedPop) {
  bool woke_with_abort = false;
  const auto result = Runtime::run(2, [&woke_with_abort](Comm& comm) {
    if (comm.rank() == 0) {
      try {
        comm.recv_value<int>(1, 0);
      } catch (const AbortError&) {
        woke_with_abort = true;
        throw;
      }
    } else {
      FiberScheduler::yield_current();
      throw std::runtime_error("rank 1 dies");
    }
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 1);
  EXPECT_TRUE(woke_with_abort);
}

TEST(Mailbox, AbortedBoxThrowsImmediately) {
  AbortToken abort;
  abort.trigger();
  Mailbox box(&abort);
  EXPECT_THROW(box.pop_matching(0, 0), AbortError);
}

TEST(Mailbox, HealthyTrafficDoesNotTriggerDeadlock) {
  // A receive waiting behind a stream of non-matching messages is woken
  // by none of them and parks again each time; it is not a deadlock as
  // long as the sender can still run.
  int got = -1;
  const auto result = Runtime::run(2, [&got](Comm& comm) {
    if (comm.rank() == 0) {
      got = comm.recv_value<int>(1, 2);
    } else {
      for (int i = 0; i < 10; ++i) {
        comm.send_value(0, 1, i);  // non-matching traffic
        FiberScheduler::yield_current();
      }
      comm.send_value(0, 2, 7);  // the match
    }
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(got, 7);
}

TEST(Mailbox, SilenceAfterTrafficStillDeadlocks) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(0, 1));
  EXPECT_THROW(box.pop_matching(0, 2), DeadlockError);
}

TEST(Mailbox, BufferPoolRecyclesCapacity) {
  AbortToken abort;
  Mailbox box(&abort);
  Envelope env;
  env.source = 0;
  env.tag = 0;
  env.bytes = box.acquire_buffer(64);
  EXPECT_EQ(env.bytes.size(), 64u);
  box.push(std::move(env));
  box.recycle(box.pop_matching(0, 0));
  // Second acquisition must come from the freelist, even at another size.
  const auto buf = box.acquire_buffer(32);
  EXPECT_EQ(buf.size(), 32u);
  const auto stats = box.pool_stats();
  EXPECT_EQ(stats.allocs, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

}  // namespace
}  // namespace resilience::simmpi
