#include <gtest/gtest.h>

#include <vector>

#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

/// Collective tests run across a sweep of job sizes, including non-powers
/// of two, via a parameterized suite.
class Collectives : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] int nranks() const { return GetParam(); }
};

TEST_P(Collectives, BcastFromEveryRoot) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<double> buf(3, comm.rank() == root ? root + 0.5 : -1.0);
      comm.bcast(std::span<double>(buf), root);
      for (double v : buf) EXPECT_DOUBLE_EQ(v, root + 0.5);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, ReduceSumsToRoot) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    const std::vector<double> in{static_cast<double>(comm.rank()), 1.0};
    std::vector<double> out(2, 0.0);
    comm.reduce(std::span<const double>(in), std::span<double>(out), 0);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(out[0], p * (p - 1) / 2.0);
      EXPECT_DOUBLE_EQ(out[1], static_cast<double>(p));
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, AllreduceSumVisibleEverywhere) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    const double v = comm.allreduce_value(static_cast<double>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(v, p * (p + 1) / 2.0);
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, AllreduceMinAndMax) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    const double mine = static_cast<double>(comm.rank());
    EXPECT_DOUBLE_EQ(comm.allreduce_value(mine, Min{}), 0.0);
    const auto max = [](double a, double b) { return a < b ? b : a; };
    EXPECT_DOUBLE_EQ(comm.allreduce_value(mine, max),
                     static_cast<double>(p - 1));
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, GatherCollectsInRankOrder) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    const std::vector<int> mine{comm.rank() * 2, comm.rank() * 2 + 1};
    std::vector<int> all(comm.rank() == 0 ? 2 * static_cast<std::size_t>(p) : 0);
    comm.gather(std::span<const int>(mine), std::span<int>(all), 0);
    if (comm.rank() == 0) {
      for (int i = 0; i < 2 * p; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, AllgatherGivesEveryoneEverything) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    const std::vector<int> mine{comm.rank()};
    std::vector<int> all(static_cast<std::size_t>(p));
    comm.allgather(std::span<const int>(mine), std::span<int>(all));
    for (int i = 0; i < p; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, AlltoallTransposesBlocks) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    // Block j of rank i carries the value i * p + j.
    std::vector<int> in(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) {
      in[static_cast<std::size_t>(j)] = comm.rank() * p + j;
    }
    std::vector<int> out(static_cast<std::size_t>(p));
    comm.alltoall(std::span<const int>(in), std::span<int>(out));
    // Block i of the output must be the block our rank index selects of
    // rank i's input: i * p + my_rank.
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], i * p + comm.rank());
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST_P(Collectives, BackToBackCollectivesDoNotCrossMatch) {
  const int p = nranks();
  const auto result = Runtime::run(p, [p](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      const double sum =
          comm.allreduce_value(static_cast<double>(comm.rank() + round));
      EXPECT_DOUBLE_EQ(sum, p * (p - 1) / 2.0 + round * p);
      int b = comm.rank() == 0 ? round : -1;
      comm.bcast(std::span<int>(&b, 1), 0);
      EXPECT_EQ(b, round);
    }
  });
  EXPECT_TRUE(result.ok);
}

INSTANTIATE_TEST_SUITE_P(JobSizes, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(CollectiveDeterminism, AllreduceBitReproducible) {
  // Floating-point reduction order is fixed, so results are bit-identical
  // across runs — the property the injector's profiling pre-pass needs.
  auto run_once = [] {
    double out = 0.0;
    Runtime::run(7, [&](Comm& comm) {
      // Values chosen so different summation orders round differently.
      const double mine = 1.0 + 1e-16 * comm.rank() + 0.1 * comm.rank();
      const double sum = comm.allreduce_value(mine);
      if (comm.rank() == 0) out = sum;
    });
    return out;
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_EQ(a, b);  // exact bit equality
}

TEST(CollectiveErrors, AllreduceSizeMismatchThrows) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    const std::vector<double> in(2);
    std::vector<double> out(3);
    if (comm.rank() == 0) {
      EXPECT_THROW(
          comm.allreduce(std::span<const double>(in), std::span<double>(out)),
          UsageError);
    }
  });
  // Rank 1 may be torn down by rank 0's missing collective; both endings
  // are acceptable as long as rank 0's throw was observed (EXPECT above).
  (void)result;
}

TEST(CollectiveErrors, AlltoallRequiresDivisibleBuffers) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    const std::vector<int> in(3);  // not divisible by 2 ranks
    std::vector<int> out(3);
    EXPECT_THROW(comm.alltoall(std::span<const int>(in), std::span<int>(out)),
                 UsageError);
  });
  (void)result;
}

}  // namespace
}  // namespace resilience::simmpi
