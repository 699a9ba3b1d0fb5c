// Tests for the extended communication surface: nonblocking receives,
// communicator split, and transport statistics.
#include <gtest/gtest.h>

#include <vector>

#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

TEST(Nonblocking, IrecvCompletesOnWait) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 3, 7.5);
    } else {
      double v = 0.0;
      Request req = comm.irecv(0, 3, std::span<double>(&v, 1));
      req.wait();
      EXPECT_DOUBLE_EQ(v, 7.5);
      EXPECT_FALSE(req.pending());
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Nonblocking, WaitAllCompletesMultipleReceives) {
  const auto result = Runtime::run(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 5, comm.rank() * 10);
    } else {
      int a = 0, b = 0;
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(1, 5, std::span<int>(&a, 1)));
      reqs.push_back(comm.irecv(2, 5, std::span<int>(&b, 1)));
      Comm::wait_all(std::span<Request>(reqs));
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Nonblocking, HaloExchangeOverlapPattern) {
  // The canonical irecv-first halo pattern: post receives, send, wait.
  const auto result = Runtime::run(4, [](Comm& comm) {
    const int prev = comm.rank() > 0 ? comm.rank() - 1 : -1;
    const int next = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
    double from_prev = -1.0, from_next = -1.0;
    std::vector<Request> reqs;
    if (prev >= 0) reqs.push_back(comm.irecv(prev, 1, std::span<double>(&from_prev, 1)));
    if (next >= 0) reqs.push_back(comm.irecv(next, 2, std::span<double>(&from_next, 1)));
    const double mine = static_cast<double>(comm.rank());
    if (prev >= 0) comm.send_value(prev, 2, mine);
    if (next >= 0) comm.send_value(next, 1, mine);
    Comm::wait_all(std::span<Request>(reqs));
    if (prev >= 0) {
      EXPECT_DOUBLE_EQ(from_prev, prev);
    }
    if (next >= 0) {
      EXPECT_DOUBLE_EQ(from_next, next);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Split, PartitionsByColorOrderedByKey) {
  const auto result = Runtime::run(6, [](Comm& comm) {
    // Even ranks vs odd ranks; key reverses the order within each group.
    Comm sub = comm.split(comm.rank() % 2, -comm.rank());
    EXPECT_EQ(sub.size(), 3);
    // Highest world rank gets local rank 0 (smallest key).
    const int expected_local = (comm.size() - 1 - comm.rank()) / 2;
    EXPECT_EQ(sub.rank(), expected_local);
    EXPECT_EQ(sub.world_rank(), comm.rank());
    // The sub-communicator works: sum of members' world ranks.
    const int total = sub.allreduce_value(comm.rank());
    EXPECT_EQ(total, comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
  EXPECT_TRUE(result.ok);
}

TEST(Split, SubCommunicatorTrafficDoesNotCrossGroups) {
  const auto result = Runtime::run(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    // Both groups run the same tag pattern concurrently.
    if (sub.rank() == 0) {
      sub.send_value(1, 7, comm.rank() * 100);
    } else {
      const int v = sub.recv_value<int>(0, 7);
      // Must come from my group's rank 0, not the other group's.
      EXPECT_EQ(v, (comm.rank() / 2) * 2 * 100);
    }
    // World-communicator traffic with the same tag is also isolated.
    if (comm.rank() == 0) {
      comm.send_value(3, 7, -1);
    } else if (comm.rank() == 3) {
      EXPECT_EQ(comm.recv_value<int>(0, 7), -1);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Split, CollectivesInSubCommunicators) {
  const auto result = Runtime::run(8, [](Comm& comm) {
    Comm row = comm.split(comm.rank() / 4, comm.rank());
    Comm col = comm.split(comm.rank() % 4, comm.rank());
    EXPECT_EQ(row.size(), 4);
    EXPECT_EQ(col.size(), 2);
    const double row_sum = row.allreduce_value(1.0);
    const double col_sum = col.allreduce_value(1.0);
    EXPECT_DOUBLE_EQ(row_sum, 4.0);
    EXPECT_DOUBLE_EQ(col_sum, 2.0);
    (void)row.allreduce_value(0);
    (void)col.allreduce_value(0);
  });
  EXPECT_TRUE(result.ok);
}

TEST(Split, NestedSplitRejected) {
  const auto result = Runtime::run(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_THROW(sub.split(0, 0), UsageError);
  });
  EXPECT_TRUE(result.ok);
}

TEST(TransportStats, CountsMessagesAndBytes) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> buf(10, 1.0);
      comm.send(1, 0, std::span<const double>(buf));
    } else {
      std::vector<double> buf(10);
      comm.recv(0, 0, std::span<double>(buf));
    }
  });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.messages_sent, 1u);
  EXPECT_EQ(result.bytes_sent, 10u * sizeof(double));
}

TEST(TransportStats, CollectivesAccountTheirMessages) {
  const auto a = Runtime::run(4, [](Comm& comm) {
    (void)comm.allreduce_value(1.0);
  });
  const auto b = Runtime::run(8, [](Comm& comm) {
    (void)comm.allreduce_value(1.0);
  });
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_GT(a.messages_sent, 0u);
  EXPECT_GT(b.messages_sent, a.messages_sent);  // more ranks, more traffic
}

}  // namespace
}  // namespace resilience::simmpi
