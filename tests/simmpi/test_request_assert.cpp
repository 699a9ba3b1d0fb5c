// Request's pending-destruction assert, with assertions compiled in (this
// file is built with -UNDEBUG in every configuration): a receive dropped
// while its rank unwinds is legal, one dropped otherwise is a usage bug.
#include <gtest/gtest.h>

#include <stdexcept>

#include "simmpi/runtime.hpp"

#ifdef NDEBUG
#error "test_request_assert.cpp must be compiled with assertions on"
#endif

namespace resilience::simmpi {
namespace {

TEST(RequestAssert, PendingReceiveDroppedWhileUnwindingIsLegal) {
  const auto result = Runtime::run(1, [](Comm& comm) {
    int v = 0;
    try {
      Request req = comm.irecv(0, 3, std::span<int>(&v, 1));
      throw std::runtime_error("rank fails with a receive posted");
    } catch (const std::runtime_error&) {
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(RequestAssert, AbortedHaloExchangeDropsItsSecondReceive) {
  // Rank 0 posts two receives, as a halo exchange does, then waits; rank 1
  // fails instead of sending. The first wait throws from the job abort and
  // the second request is destroyed while rank 0 unwinds.
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("neighbour failed");
    int a = 0, b = 0;
    Request first = comm.irecv(1, 1, std::span<int>(&a, 1));
    Request second = comm.irecv(1, 2, std::span<int>(&b, 1));
    first.wait();
    second.wait();
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.failed_rank, 1);
}

TEST(RequestAssertDeathTest, PendingReceiveDroppedWithoutExceptionAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime::run(1, [](Comm& comm) {
          int v = 0;
          Request req = comm.irecv(0, 3, std::span<int>(&v, 1));
        });
      },
      "Request destroyed before wait");
}

}  // namespace
}  // namespace resilience::simmpi
