#include <gtest/gtest.h>

#include <vector>

#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

TEST(PointToPoint, SendRecvValue) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 42.5);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 7), 42.5);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, SendRecvArray) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    std::vector<int> data{1, 2, 3, 4};
    if (comm.rank() == 0) {
      comm.send(1, 0, std::span<const int>(data));
    } else {
      std::vector<int> got(4);
      comm.recv(0, 0, std::span<int>(got));
      EXPECT_EQ(got, data);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, TagMatchingSelectsCorrectMessage) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 100);
      comm.send_value(1, 2, 200);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, NonOvertakingPerSourceAndTag) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(1, 5, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, SendRecvExchangesWithoutDeadlock) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    const double mine = comm.rank() + 1.0;
    double theirs = 0.0;
    comm.sendrecv(peer, 4, std::span<const double>(&mine, 1), peer, 4,
                  std::span<double>(&theirs, 1));
    EXPECT_DOUBLE_EQ(theirs, peer + 1.0);
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, SizeMismatchIsAnError) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, 1);
    } else {
      std::vector<int> too_big(2);
      comm.recv(0, 0, std::span<int>(too_big));  // throws UsageError
    }
  });
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.failed_rank, 1);
}

TEST(PointToPoint, BadPeerThrows) {
  const auto result = Runtime::run(1, [](Comm& comm) {
    EXPECT_THROW(comm.send_value(5, 0, 1), UsageError);
    EXPECT_THROW(comm.send_value(-1, 0, 1), UsageError);
    int v;
    EXPECT_THROW(comm.recv(7, 0, std::span<int>(&v, 1)), UsageError);
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, ReservedTagRejected) {
  const auto result = Runtime::run(1, [](Comm& comm) {
    EXPECT_THROW(comm.send_value(0, kMaxUserTag + 1, 1), UsageError);
    EXPECT_THROW(comm.send_value(0, -5, 1), UsageError);
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, EmptyMessageRoundTrips) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    std::vector<double> nothing;
    if (comm.rank() == 0) {
      comm.send(1, 0, std::span<const double>(nothing));
    } else {
      comm.recv(0, 0, std::span<double>(nothing));
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(PointToPoint, SelfSendIsDelivered) {
  const auto result = Runtime::run(1, [](Comm& comm) {
    comm.send_value(0, 1, 3.5);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 1), 3.5);
  });
  EXPECT_TRUE(result.ok);
}

}  // namespace
}  // namespace resilience::simmpi
