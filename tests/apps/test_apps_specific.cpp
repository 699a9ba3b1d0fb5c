// Numerical sanity of each benchmark's algorithm: the solvers must
// actually solve (residuals small / decreasing), the hydro must conserve,
// and the configurations must match their declared input problems.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "apps/cg.hpp"
#include "apps/ft.hpp"
#include "apps/lu.hpp"
#include "apps/mg.hpp"
#include "apps/minife.hpp"
#include "apps/pennant.hpp"
#include "harness/runner.hpp"

namespace resilience::apps {
namespace {

std::vector<double> run_signature(const App& app, int nranks) {
  return harness::profile_app(app, nranks).signature;
}

TEST(Cg, ConvergesToSmallResidual) {
  const CgApp app(CgApp::config_for_class("S"), "S");
  const auto sig = run_signature(app, 1);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_GT(sig[0], app.config().shift);  // zeta = shift + 1/(x.z) > shift
  EXPECT_LT(sig[1], 1e-4);                // CG residual after the solves
}

TEST(Cg, ZetaApproximatesSmallestEigenvalueBand) {
  // The matrix is diagonally dominant with diagonal shift + rowsum, so its
  // smallest eigenvalue is at least `shift`; inverse power iteration's
  // zeta must land above it and within a plausible band.
  const CgApp app(CgApp::config_for_class("S"), "S");
  const auto sig = run_signature(app, 1);
  EXPECT_GT(sig[0], app.config().shift);
  EXPECT_LT(sig[0], app.config().shift + 40.0);
}

TEST(Cg, ClassBIsLarger) {
  const auto s = CgApp::config_for_class("S");
  const auto b = CgApp::config_for_class("B");
  EXPECT_GT(b.n, s.n);
  EXPECT_THROW(CgApp::config_for_class("Z"), std::invalid_argument);
}

TEST(Ft, RequiresPowerOfTwoGrid) {
  FtApp::Config cfg;
  cfg.n = 48;
  EXPECT_THROW(FtApp(cfg, "S"), std::invalid_argument);
}

TEST(Ft, TransformEnergyIsReasonable) {
  // The evolve factor is unit-modulus and the transform pair normalizes,
  // so the checksum must stay O(grid) — not blow up or vanish.
  const FtApp app(FtApp::config_for_class("S"), "S");
  const auto sig = run_signature(app, 1);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_GT(std::abs(sig[0]) + std::abs(sig[1]), 1e-3);
  EXPECT_LT(std::abs(sig[0]) + std::abs(sig[1]), 1e4);
}

TEST(Ft, SerialAndParallelTransposePathsAgree) {
  // The serial local-transpose path and the parallel alltoall path are
  // different code; they must compute the same transform.
  const FtApp app(FtApp::config_for_class("S"), "S");
  const auto serial = run_signature(app, 1);
  const auto parallel = run_signature(app, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], parallel[i],
                1e-9 * (std::abs(serial[i]) + 1.0));
  }
}

TEST(Mg, VcyclesReduceResidual) {
  // The residual after the V-cycles must be far below the initial
  // ||f|| (u0 = 0 makes the initial residual exactly ||f||).
  MgApp::Config cfg = MgApp::config_for_class("S");
  const MgApp app(cfg, "S");
  const auto sig = run_signature(app, 1);
  ASSERT_EQ(sig.size(), 2u);
  const double rnorm = sig[0];
  EXPECT_LT(rnorm, 2.0);   // initial ||f|| is ~sqrt(rows*cols/3) ~ 20
  EXPECT_GT(sig[1], 0.0);  // nonzero solution
}

TEST(Mg, MoreCyclesReduceResidualFurther) {
  MgApp::Config few = MgApp::config_for_class("S");
  few.vcycles = 1;
  MgApp::Config many = MgApp::config_for_class("S");
  many.vcycles = 4;
  const double r_few = run_signature(MgApp(few, "S"), 1)[0];
  const double r_many = run_signature(MgApp(many, "S"), 1)[0];
  EXPECT_LT(r_many, r_few);
}

TEST(Mg, DistributedCoarseLevelsMatchSerial) {
  // At 16, 64 and 128 ranks the coarse levels live on strided rank
  // subsets (some ranks hold no row of them); the answer must match the
  // serial one to reduction-order accuracy.
  const MgApp app(MgApp::config_for_class("S"), "S");
  const auto serial = run_signature(app, 1);
  for (const int p : {16, 64, 128}) {
    const auto wide = run_signature(app, p);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(serial[i], wide[i], 1e-9 * (std::abs(serial[i]) + 1.0))
          << p << " ranks, signature " << i;
    }
  }
}

TEST(Mg, EveryRankCountRunsTheSerialOps) {
  // No level is replicated: p ranks run the serial ops plus each rank's
  // own square root of the five global norms.
  const MgApp app(MgApp::config_for_class("S"), "S");
  constexpr std::uint64_t kSerialOps = 395'605;
  for (const int p : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const auto golden = harness::profile_app(app, p);
    std::uint64_t total = 0;
    for (const auto& profile : golden.profiles) total += profile.total();
    EXPECT_EQ(total, kSerialOps + 5 * static_cast<std::uint64_t>(p - 1))
        << p << " ranks";
    if (p == 64) {
      EXPECT_LE(golden.max_rank_ops, kSerialOps / 8);
    }
  }
}

TEST(Mg, BadLevelConfigurationThrows) {
  MgApp::Config cfg;
  cfg.rows = 4;
  cfg.coarsest_rows = 8;
  EXPECT_THROW(MgApp(cfg, "S"), std::invalid_argument);
  cfg.rows = 96;  // levels must halve down to an integral owner stride
  EXPECT_THROW(MgApp(cfg, "S"), std::invalid_argument);
}

TEST(Lu, SsorIterationsReduceResidual) {
  LuApp::Config one = LuApp::config_for_class("W");
  one.iterations = 1;
  LuApp::Config three = LuApp::config_for_class("W");
  three.iterations = 3;
  const double r1 = run_signature(LuApp(one, "W"), 1)[0];
  const double r3 = run_signature(LuApp(three, "W"), 1)[0];
  EXPECT_LT(r3, r1);
  EXPECT_GT(r1, 0.0);
}

TEST(Lu, PipelineMatchesSerial) {
  const LuApp app(LuApp::config_for_class("W"), "W");
  const auto serial = run_signature(app, 1);
  const auto piped = run_signature(app, 8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], piped[i], 1e-9 * (std::abs(serial[i]) + 1.0));
  }
}

TEST(MiniFe, ReferenceStiffnessHasFiniteElementStructure) {
  const MiniFeApp app(MiniFeApp::config_for_class("S"), "S");
  const auto& k = app.reference_stiffness();
  // Symmetric, rows sum to zero (rigid-body mode), positive diagonal.
  for (int a = 0; a < 8; ++a) {
    double row_sum = 0.0;
    for (int b = 0; b < 8; ++b) {
      row_sum += k[static_cast<std::size_t>(a * 8 + b)];
      EXPECT_NEAR(k[static_cast<std::size_t>(a * 8 + b)],
                  k[static_cast<std::size_t>(b * 8 + a)], 1e-12);
    }
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
    EXPECT_GT(k[static_cast<std::size_t>(a * 8 + a)], 0.0);
  }
}

TEST(MiniFe, CgDrivesResidualDown) {
  const MiniFeApp app(MiniFeApp::config_for_class("S"), "S");
  const auto sig = run_signature(app, 1);
  ASSERT_EQ(sig.size(), 3u);
  // The varying RHS forces CG to iterate: the residual falls below 1.
  EXPECT_LT(sig[0], 1.0);
  EXPECT_GT(sig[1], 0.0);  // solution norm
  EXPECT_GT(sig[2], 0.0);  // b . x > 0 for an SPD system
}

TEST(MiniFe, DistributedAssemblyMatchesSerial) {
  // Remote-contribution exchange must assemble the same matrix: the CG
  // answers agree to reduction-order accuracy.
  const MiniFeApp app(MiniFeApp::config_for_class("S"), "S");
  const auto serial = run_signature(app, 1);
  const auto parallel = run_signature(app, 8);
  for (std::size_t i = 1; i < serial.size(); ++i) {  // skip near-zero rnorm
    EXPECT_NEAR(serial[i], parallel[i], 1e-8 * (std::abs(serial[i]) + 1.0));
  }
}

TEST(MiniFe, StencilPatternMatchesElementConnectivity) {
  // The fixed CSR pattern is exactly the set of (row, col) node pairs that
  // share an element: assembly finds a slot for every contribution and no
  // slot stays empty. Row blocks cover uneven splits and empty ranks.
  for (const int nx : {2, 6, 10}) {
    const std::int64_t n = nx + 1;
    std::set<std::pair<std::int64_t, std::int64_t>> connected;
    for (int ez = 0; ez < nx; ++ez) {
      for (int ey = 0; ey < nx; ++ey) {
        for (int ex = 0; ex < nx; ++ex) {
          std::int64_t nodes[8];
          for (int a = 0; a < 8; ++a) {
            nodes[a] = ex + (a & 1) +
                       n * (ey + ((a >> 1) & 1) + n * (ez + ((a >> 2) & 1)));
          }
          for (const std::int64_t row : nodes) {
            for (const std::int64_t col : nodes) connected.emplace(row, col);
          }
        }
      }
    }
    for (const int p : {1, 3, 7, 8, 64}) {
      SCOPED_TRACE("nx=" + std::to_string(nx) + " p=" + std::to_string(p));
      std::size_t entries = 0;
      for (int rank = 0; rank < p; ++rank) {
        const auto rows = simmpi::block_partition(n * n * n, p, rank);
        const auto pattern = MiniFeApp::stencil_pattern(nx, rows);
        ASSERT_EQ(pattern.row_ptr.size(),
                  static_cast<std::size_t>(rows.count()) + 1);
        ASSERT_EQ(pattern.row_ptr.back(), pattern.col_idx.size());
        std::set<std::pair<std::int64_t, std::int64_t>> got;
        for (std::int64_t row = rows.lo; row < rows.hi; ++row) {
          const auto i = static_cast<std::size_t>(row - rows.lo);
          const auto first = pattern.col_idx.begin() +
                             static_cast<std::ptrdiff_t>(pattern.row_ptr[i]);
          const auto last = pattern.col_idx.begin() +
                            static_cast<std::ptrdiff_t>(pattern.row_ptr[i + 1]);
          // Strictly ascending columns: the lower_bound lookup needs it.
          EXPECT_EQ(std::adjacent_find(first, last, std::greater_equal<>()),
                    last);
          for (auto it = first; it != last; ++it) got.emplace(row, *it);
        }
        const std::set<std::pair<std::int64_t, std::int64_t>> want(
            connected.lower_bound({rows.lo, 0}),
            connected.lower_bound({rows.hi, 0}));
        EXPECT_EQ(got, want) << "rank " << rank;
        entries += pattern.col_idx.size();
      }
      EXPECT_EQ(entries, connected.size());
    }
  }
}

TEST(Pennant, RunsToFinalTime) {
  const PennantApp app(PennantApp::config_for_class("leblanc"), "leblanc");
  const auto out = harness::run_app_once(app, 1, {});
  ASSERT_TRUE(out.runtime.ok);
  EXPECT_GT(out.result->iterations, 10);
  EXPECT_LT(out.result->iterations, app.config().max_steps);
}

TEST(Pennant, ShockTubeConservesEnergyApproximately) {
  const PennantApp app(PennantApp::config_for_class("leblanc"), "leblanc");
  const auto& cfg = app.config();
  // Initial total energy: sum over zones of m * e (no kinetic energy).
  const double zones_left = cfg.interface / (cfg.tube_length / cfg.zones);
  const double gm1 = cfg.gamma - 1.0;
  const double dx = cfg.tube_length / cfg.zones;
  const double e_init = zones_left * dx * cfg.p_left / gm1 +
                        (cfg.zones - zones_left) * dx * cfg.p_right / gm1;
  const auto sig = run_signature(app, 1);
  // Staggered-grid hydro with artificial viscosity conserves total energy
  // approximately (work terms are not exactly symmetrized).
  EXPECT_NEAR(sig[0], e_init, 0.05 * e_init);
}

TEST(Pennant, MomentumStaysNearZero) {
  // Walls at both ends: total momentum must remain small relative to the
  // momentum scale of the shock.
  const PennantApp app(PennantApp::config_for_class("leblanc"), "leblanc");
  const auto sig = run_signature(app, 1);
  EXPECT_LT(std::abs(sig[1]), 1.0);
}

TEST(Pennant, StepBudgetTooSmallIsAFailure) {
  PennantApp::Config cfg = PennantApp::config_for_class("leblanc");
  cfg.max_steps = 3;  // cannot reach t_final
  const PennantApp app(cfg, "leblanc");
  const auto out = harness::run_app_once(app, 1, {});
  EXPECT_FALSE(out.runtime.ok);
}

TEST(Pennant, ParallelHydroMatchesSerial) {
  const PennantApp app(PennantApp::config_for_class("leblanc"), "leblanc");
  const auto serial = run_signature(app, 1);
  const auto parallel = run_signature(app, 8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], parallel[i], 1e-9 * (std::abs(serial[i]) + 1.0));
  }
}

}  // namespace
}  // namespace resilience::apps
