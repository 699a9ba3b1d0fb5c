// Properties every benchmark must satisfy, swept over (app, rank count)
// with a parameterized suite: clean golden runs, bit-reproducibility,
// scale consistency (strong scaling computes the same answer), and honest
// supports() declarations.
#include <cmath>
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "apps/trial_control.hpp"
#include "fsefi/fault_context.hpp"
#include "harness/campaign.hpp"
#include "simmpi/runtime.hpp"

namespace resilience::apps {
namespace {

struct Case {
  AppId id;
  int nranks;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto app = make_app(info.param.id);
  return app->name() + "_" + std::to_string(info.param.nranks) + "ranks";
}

class AppContract : public ::testing::TestWithParam<Case> {};

TEST_P(AppContract, GoldenRunSucceedsWithFiniteSignature) {
  const auto app = make_app(GetParam().id);
  ASSERT_TRUE(app->supports(GetParam().nranks));
  const auto golden = harness::profile_app(*app, GetParam().nranks);
  ASSERT_FALSE(golden.signature.empty());
  for (double v : golden.signature) EXPECT_TRUE(std::isfinite(v)) << v;
  EXPECT_GT(golden.max_rank_ops, 0u);
}

TEST_P(AppContract, GoldenRunIsBitReproducible) {
  const auto app = make_app(GetParam().id);
  const auto a = harness::profile_app(*app, GetParam().nranks);
  const auto b = harness::profile_app(*app, GetParam().nranks);
  EXPECT_EQ(a.signature, b.signature);  // exact bit equality
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (std::size_t r = 0; r < a.profiles.size(); ++r) {
    EXPECT_EQ(a.profiles[r].total(), b.profiles[r].total()) << "rank " << r;
  }
}

TEST_P(AppContract, NoContaminationWithoutInjection) {
  const auto app = make_app(GetParam().id);
  const auto out =
      harness::run_app_once(*app, GetParam().nranks, /*plans=*/{});
  ASSERT_TRUE(out.runtime.ok);
  for (std::size_t r = 0; r < out.contaminated.size(); ++r) {
    EXPECT_FALSE(out.contaminated[r]) << "rank " << r;
  }
}

TEST_P(AppContract, StrongScalingMatchesSerialWithinTolerance) {
  // Different scales reduce in different orders, so signatures differ in
  // low bits but must agree far within the app's checker tolerance.
  const auto app = make_app(GetParam().id);
  const auto serial = harness::profile_app(*app, 1);
  const auto parallel = harness::profile_app(*app, GetParam().nranks);
  ASSERT_EQ(serial.signature.size(), parallel.signature.size());
  const double dev =
      harness::signature_deviation(parallel.signature, serial.signature);
  EXPECT_LT(dev, app->checker_tolerance())
      << "serial vs " << GetParam().nranks << " ranks";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppContract,
    ::testing::Values(Case{AppId::CG, 1}, Case{AppId::CG, 4}, Case{AppId::CG, 8},
                      Case{AppId::CG, 13}, Case{AppId::CG, 64},
                      Case{AppId::FT, 1}, Case{AppId::FT, 4}, Case{AppId::FT, 8},
                      Case{AppId::FT, 16},
                      Case{AppId::MG, 1}, Case{AppId::MG, 4}, Case{AppId::MG, 8},
                      Case{AppId::MG, 16}, Case{AppId::MG, 32},
                      Case{AppId::MG, 64}, Case{AppId::MG, 128},
                      Case{AppId::LU, 1}, Case{AppId::LU, 4}, Case{AppId::LU, 8},
                      Case{AppId::LU, 10},
                      Case{AppId::MiniFE, 1}, Case{AppId::MiniFE, 4},
                      Case{AppId::MiniFE, 8},
                      Case{AppId::PENNANT, 1}, Case{AppId::PENNANT, 4},
                      Case{AppId::PENNANT, 8}),
    case_name);

/// Records the rank's instrumented op count when begin() runs, then lets
/// the run proceed as a normal (unrestored) one.
class OpsAtBegin final : public TrialControl {
 public:
  int begin(std::span<const StateView>) override {
    ops = fsefi::current_context()->ops_total();
    ++calls;
    return 0;
  }
  bool boundary(simmpi::Comm&, int, std::span<const StateView>) override {
    return true;
  }

  std::uint64_t ops = 0;
  int calls = 0;
};

TEST(BoundaryContract, NoInstrumentedOpBeforeBegin) {
  // begin() comes before any setup that executes instrumented ops
  // (DESIGN.md §9 item 1), so a trial restored from a checkpoint never
  // executes setup whose results the restore overwrites.
  for (const auto id : all_app_ids()) {
    for (const int nranks : {1, 8}) {
      const auto app = make_app(id);
      SCOPED_TRACE(app->name() + " on " + std::to_string(nranks) + " ranks");
      std::vector<fsefi::FaultContext> contexts(static_cast<std::size_t>(nranks));
      std::vector<OpsAtBegin> controls(static_cast<std::size_t>(nranks));
      simmpi::RunOptions opts;
      opts.on_rank_start = [&](int rank) {
        contexts[static_cast<std::size_t>(rank)].reset();
        fsefi::install_context(&contexts[static_cast<std::size_t>(rank)]);
        install_trial_control(&controls[static_cast<std::size_t>(rank)]);
      };
      opts.on_rank_exit = [](int) {
        install_trial_control(nullptr);
        fsefi::install_context(nullptr);
      };
      const auto result = simmpi::Runtime::run(
          nranks, [&](simmpi::Comm& comm) { (void)app->run(comm); }, opts);
      ASSERT_TRUE(result.ok);
      std::uint64_t total = 0;
      for (const OpsAtBegin& ctl : controls) {
        EXPECT_EQ(ctl.calls, 1);
        total += ctl.ops;
      }
      // The one exception: PENNANT still computes its node masses `nm`
      // (a view, so a restore overwrites them) before begin(). That is
      // about 0.1% of its ops, so the exact counts are pinned instead.
      std::uint64_t expected = 0;
      if (id == AppId::PENNANT) expected = nranks == 1 ? 258 : 272;
      EXPECT_EQ(total, expected);
    }
  }
}

TEST(AppRegistry, AllAppsConstructible) {
  for (const auto id : all_app_ids()) {
    const auto app = make_app(id);
    EXPECT_FALSE(app->name().empty());
    EXPECT_FALSE(app->size_class().empty());
    EXPECT_TRUE(app->supports(1));
    EXPECT_GT(app->checker_tolerance(), 0.0);
  }
  EXPECT_EQ(all_app_ids().size(), 6u);
}

TEST(AppRegistry, ParseRoundTrips) {
  EXPECT_EQ(parse_app_id("CG"), AppId::CG);
  EXPECT_EQ(parse_app_id("ft"), AppId::FT);
  EXPECT_EQ(parse_app_id("MiniFE"), AppId::MiniFE);
  EXPECT_EQ(parse_app_id("pennant"), AppId::PENNANT);
  EXPECT_THROW(parse_app_id("NOPE"), std::invalid_argument);
}

TEST(AppRegistry, SizeClassesResolve) {
  EXPECT_EQ(make_app(AppId::CG, "B")->size_class(), "B");
  EXPECT_EQ(make_app(AppId::FT, "B")->size_class(), "B");
  EXPECT_EQ(make_app(AppId::LU)->size_class(), "W");
  EXPECT_EQ(make_app(AppId::PENNANT)->size_class(), "leblanc");
  EXPECT_THROW(make_app(AppId::MG, "XXL"), std::invalid_argument);
}

TEST(AppSupports, HonestDeclarations) {
  EXPECT_FALSE(make_app(AppId::CG)->supports(0));
  EXPECT_FALSE(make_app(AppId::CG)->supports(-4));
  EXPECT_TRUE(make_app(AppId::CG)->supports(128));
  // FT requires the rank count to divide the grid.
  const auto ft = make_app(AppId::FT);
  EXPECT_TRUE(ft->supports(64));
  EXPECT_FALSE(ft->supports(3));
  EXPECT_FALSE(ft->supports(65));
  // MG requires divisibility of the finest level.
  const auto mg = make_app(AppId::MG);
  EXPECT_TRUE(mg->supports(64));
  EXPECT_FALSE(mg->supports(3));
}

TEST(AppSupports, RunnerRejectsUnsupportedScale) {
  const auto ft = make_app(AppId::FT);
  EXPECT_THROW(harness::run_app_once(*ft, 3, {}), simmpi::UsageError);
}

TEST(ParallelUniqueFractions, MatchTable1Shape) {
  // Table 1's qualitative shape: FT has by far the largest parallel-unique
  // fraction; MiniFE a small one; MG, LU and PENNANT none.
  const auto frac = [](AppId id, int p) {
    const auto app = make_app(id);
    return harness::profile_app(*app, p).unique_fraction();
  };
  const double ft = frac(AppId::FT, 4);
  const double minife = frac(AppId::MiniFE, 4);
  EXPECT_GT(ft, 0.02);
  EXPECT_GT(minife, 0.0);
  EXPECT_LT(minife, ft);
  EXPECT_EQ(frac(AppId::MG, 4), 0.0);
  EXPECT_EQ(frac(AppId::LU, 4), 0.0);
  EXPECT_EQ(frac(AppId::PENNANT, 4), 0.0);
  // Serial execution has no parallel-unique computation by definition.
  EXPECT_EQ(frac(AppId::FT, 1), 0.0);
  EXPECT_EQ(frac(AppId::MiniFE, 1), 0.0);
}

}  // namespace
}  // namespace resilience::apps
