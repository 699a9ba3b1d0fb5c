#include "simmpi/topology.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace resilience::simmpi {
namespace {

TEST(BlockPartition, EvenSplit) {
  EXPECT_EQ(block_partition(8, 4, 0), (BlockRange{0, 2}));
  EXPECT_EQ(block_partition(8, 4, 3), (BlockRange{6, 8}));
}

TEST(BlockPartition, UnevenSplitFrontLoaded) {
  // 10 over 4: sizes 3, 3, 2, 2.
  EXPECT_EQ(block_partition(10, 4, 0).count(), 3);
  EXPECT_EQ(block_partition(10, 4, 1).count(), 3);
  EXPECT_EQ(block_partition(10, 4, 2).count(), 2);
  EXPECT_EQ(block_partition(10, 4, 3).count(), 2);
}

TEST(BlockPartition, MorePartsThanElements) {
  EXPECT_EQ(block_partition(2, 4, 0).count(), 1);
  EXPECT_EQ(block_partition(2, 4, 1).count(), 1);
  EXPECT_EQ(block_partition(2, 4, 2).count(), 0);
  EXPECT_EQ(block_partition(2, 4, 3).count(), 0);
}

TEST(BlockPartition, BadArgumentsThrow) {
  EXPECT_THROW(block_partition(4, 0, 0), UsageError);
  EXPECT_THROW(block_partition(4, 2, 2), UsageError);
  EXPECT_THROW(block_partition(4, 2, -1), UsageError);
  EXPECT_THROW(block_partition(-1, 2, 0), UsageError);
}

/// Property sweep over (n, parts): blocks tile [0, n) exactly, sizes
/// differ by at most one, and block_owner inverts block_partition.
class PartitionProperty
    : public ::testing::TestWithParam<std::pair<std::int64_t, int>> {};

TEST_P(PartitionProperty, TilesAndInverts) {
  const auto [n, parts] = GetParam();
  std::int64_t covered = 0;
  std::int64_t min_count = n, max_count = 0;
  for (int r = 0; r < parts; ++r) {
    const auto range = block_partition(n, parts, r);
    EXPECT_EQ(range.lo, covered);
    covered = range.hi;
    min_count = std::min(min_count, range.count());
    max_count = std::max(max_count, range.count());
    for (std::int64_t i = range.lo; i < range.hi; ++i) {
      EXPECT_EQ(block_owner(n, parts, i), r);
      EXPECT_TRUE(range.contains(i));
    }
  }
  EXPECT_EQ(covered, n);
  EXPECT_LE(max_count - min_count, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionProperty,
    ::testing::Values(std::pair<std::int64_t, int>{1, 1},
                      std::pair<std::int64_t, int>{10, 3},
                      std::pair<std::int64_t, int>{128, 64},
                      std::pair<std::int64_t, int>{127, 64},
                      std::pair<std::int64_t, int>{343, 64},
                      std::pair<std::int64_t, int>{5, 8},
                      std::pair<std::int64_t, int>{256, 128}));

TEST(BlockOwner, OutOfRangeThrows) {
  EXPECT_THROW(block_owner(4, 2, 4), UsageError);
  EXPECT_THROW(block_owner(4, 2, -1), UsageError);
}

}  // namespace
}  // namespace resilience::simmpi
