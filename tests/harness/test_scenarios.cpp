// The FaultScenario catalog end to end (DESIGN.md §16): catalog lookup,
// TrialSpace validation of unsupported combinations, per-family campaign
// determinism across worker counts / collective fusion / the checkpoint
// kill switch, the fail-stop Crash outcome, the Poisson fast-forward
// refusal rule, and backward compatibility of pre-scenario saved
// campaign files (load + re-save byte-identical, rerun bit-identical).
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/app.hpp"
#include "fsefi/scenario.hpp"
#include "harness/campaign.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "harness/serialize.hpp"
#include "simmpi/runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience {
namespace {

using fsefi::ArrivalModel;
using fsefi::FaultPattern;
using fsefi::FaultScenario;
using harness::CampaignResult;
using harness::CampaignRunner;
using harness::DeploymentConfig;
using telemetry::Counter;

// ---- catalog ---------------------------------------------------------------

TEST(ScenarioCatalog, FamiliesInDisplayOrder) {
  const auto catalog = fsefi::scenario_catalog();
  ASSERT_EQ(catalog.size(), 6u);
  const char* expected[] = {"paper", "register-byte", "payload",
                            "state", "poisson",       "crash"};
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_STREQ(catalog[i].name, expected[i]);
  }
}

TEST(ScenarioCatalog, NameRoundTripsAndCustomFallback) {
  for (const auto& entry : fsefi::scenario_catalog()) {
    EXPECT_STREQ(fsefi::scenario_name(entry.scenario), entry.name);
    EXPECT_EQ(fsefi::scenario_by_name(entry.name), entry.scenario);
  }
  // The catalog names the (domain, pattern, arrival) shape; kind/region
  // filters and the MTBF are deployment knobs that keep the name.
  FaultScenario tuned = fsefi::scenario_by_name("poisson");
  tuned.mtbf_factor = 0.123;
  EXPECT_STREQ(fsefi::scenario_name(tuned), "poisson");
  FaultScenario custom;  // byte corruption on a timeline: no catalog entry
  custom.pattern = FaultPattern::Byte;
  custom.arrival = ArrivalModel::PoissonTimeline;
  EXPECT_STREQ(fsefi::scenario_name(custom), "custom");
}

TEST(ScenarioCatalog, UnknownNameThrowsListingKnownNames) {
  try {
    (void)fsefi::scenario_by_name("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("paper"), std::string::npos) << msg;
    EXPECT_NE(msg.find("crash"), std::string::npos) << msg;
  }
}

TEST(ScenarioCatalog, LegacyAndCrashPredicates) {
  EXPECT_TRUE(fsefi::scenario_by_name("paper").legacy());
  for (const char* name :
       {"register-byte", "payload", "state", "poisson", "crash"}) {
    EXPECT_FALSE(fsefi::scenario_by_name(name).legacy()) << name;
    EXPECT_EQ(fsefi::scenario_by_name(name).crash(),
              std::string_view(name) == "crash")
        << name;
  }
  // The default-constructed scenario IS the paper scenario: every config
  // that never mentions scenarios reproduces the pre-catalog behaviour.
  EXPECT_EQ(FaultScenario{}, fsefi::scenario_by_name("paper"));
}

// ---- TrialSpace validation -------------------------------------------------

class ScenarioSpace : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    app_ = apps::make_app(apps::AppId::CG).release();
    golden_ = new harness::GoldenRun(harness::profile_app(*app_, 2));
  }
  static const apps::App& app() { return *app_; }
  static const harness::GoldenRun& golden() { return *golden_; }

 private:
  static const apps::App* app_;
  static const harness::GoldenRun* golden_;
};

const apps::App* ScenarioSpace::app_ = nullptr;
const harness::GoldenRun* ScenarioSpace::golden_ = nullptr;

TEST_F(ScenarioSpace, RejectsUnsupportedCombinations) {
  DeploymentConfig cfg;
  cfg.nranks = 2;

  cfg.scenario = fsefi::scenario_by_name("crash");
  cfg.scenario.arrival = ArrivalModel::PoissonTimeline;
  EXPECT_THROW(harness::TrialSpace(app(), cfg, golden()),
               std::invalid_argument);

  cfg.scenario = fsefi::scenario_by_name("state");
  cfg.scenario.arrival = ArrivalModel::PoissonTimeline;
  EXPECT_THROW(harness::TrialSpace(app(), cfg, golden()),
               std::invalid_argument);

  cfg.scenario = fsefi::scenario_by_name("payload");
  cfg.selection = harness::TargetSelection::UniformRank;
  EXPECT_THROW(harness::TrialSpace(app(), cfg, golden()),
               std::invalid_argument);

  cfg.selection = harness::TargetSelection::UniformInstruction;
  cfg.scenario = fsefi::scenario_by_name("poisson");
  cfg.scenario.mtbf_factor = 0.0;
  EXPECT_THROW(harness::TrialSpace(app(), cfg, golden()),
               std::invalid_argument);
}

TEST_F(ScenarioSpace, AcceptsEveryCatalogEntry) {
  for (const auto& entry : fsefi::scenario_catalog()) {
    DeploymentConfig cfg;
    cfg.nranks = 2;
    cfg.scenario = entry.scenario;
    EXPECT_NO_THROW(harness::TrialSpace(app(), cfg, golden())) << entry.name;
  }
}

// ---- per-family campaign determinism --------------------------------------

/// Serialized view with the wall clock zeroed: equal strings == equal
/// campaigns in every field the schema records.
std::string fingerprint(CampaignResult result) {
  result.wall_seconds = 0.0;
  return harness::to_json(result).dump();
}

/// Restores production defaults on scope exit.
struct ModeRestore {
  ~ModeRestore() {
    harness::set_checkpoint_enabled(true);
    simmpi::detail::set_fused_collectives_enabled(true);
  }
};

TEST(ScenarioCampaigns, EveryFamilyBitIdenticalAcrossExecutionModes) {
  ModeRestore restore;
  const auto app = apps::make_app(apps::AppId::CG);
  for (const auto& entry : fsefi::scenario_catalog()) {
    DeploymentConfig cfg;
    cfg.nranks = 2;
    cfg.trials = 10;
    cfg.scenario = entry.scenario;
    cfg.max_workers = 1;

    harness::set_checkpoint_enabled(true);
    const std::string serial = fingerprint(CampaignRunner::run(*app, cfg));

    cfg.max_workers = 4;
    EXPECT_EQ(fingerprint(CampaignRunner::run(*app, cfg)), serial)
        << entry.name << " differs across worker counts";

    harness::set_checkpoint_enabled(false);
    EXPECT_EQ(fingerprint(CampaignRunner::run(*app, cfg)), serial)
        << entry.name << " differs with checkpointing disabled";
    harness::set_checkpoint_enabled(true);

    simmpi::detail::set_fused_collectives_enabled(false);
    EXPECT_EQ(fingerprint(CampaignRunner::run(*app, cfg)), serial)
        << entry.name << " differs with mailbox collectives";
    simmpi::detail::set_fused_collectives_enabled(true);
  }
}

// Regression: a payload flip landing mid-tree in a bcast must contaminate
// the receiving rank's whole subtree, fused or not. The fused combiner
// used to copy every child from the root's buffer, silently localizing
// the corruption the mailbox walk forwards — campaigns then disagreed
// with the mailbox reference. Four ranks give the bcast tree a grandchild.
TEST(ScenarioCampaigns, PayloadCampaignAgreesFusedVsMailboxAtDepthTwo) {
  ModeRestore restore;
  const auto app = apps::make_app(apps::AppId::CG);
  DeploymentConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 30;
  cfg.scenario = fsefi::scenario_by_name("payload");

  const std::string fused = fingerprint(CampaignRunner::run(*app, cfg));
  simmpi::detail::set_fused_collectives_enabled(false);
  const std::string mailbox = fingerprint(CampaignRunner::run(*app, cfg));
  EXPECT_EQ(fused, mailbox);
}

// Every collective an app calls arrives once at its fused group. FT's
// alltoall transposes (complex values, which carry no payload stream, so
// paper faults only), CG's per-matvec allgather at 16 ranks and MiniFE's
// padded (uneven) allgather at 6 ranks must save the mailbox
// decomposition's bytes, payload flips included.
TEST(ScenarioCampaigns, FusedExchangeCampaignsAgreeWithMailbox) {
  ModeRestore restore;
  struct Case {
    apps::AppId app;
    int nranks;
    const char* scenario;
  };
  for (const Case& c : {Case{apps::AppId::FT, 4, "paper"},
                        Case{apps::AppId::FT, 16, "paper"},
                        Case{apps::AppId::CG, 16, "payload"},
                        Case{apps::AppId::MiniFE, 6, "payload"}}) {
    const auto app = apps::make_app(c.app);
    SCOPED_TRACE(::testing::Message() << app->name() << " at " << c.nranks
                                      << " ranks, " << c.scenario);
    DeploymentConfig cfg;
    cfg.nranks = c.nranks;
    cfg.trials = 24;
    cfg.scenario = fsefi::scenario_by_name(c.scenario);
    simmpi::detail::set_fused_collectives_enabled(true);
    const std::string fused = fingerprint(CampaignRunner::run(*app, cfg));
    simmpi::detail::set_fused_collectives_enabled(false);
    const std::string mailbox = fingerprint(CampaignRunner::run(*app, cfg));
    EXPECT_EQ(fused, mailbox);
  }
}

TEST(ScenarioCampaigns, MechanismCountersFirePerFamily) {
  const auto app = apps::make_app(apps::AppId::CG);
  DeploymentConfig cfg;
  cfg.nranks = 2;
  cfg.trials = 10;

  cfg.scenario = fsefi::scenario_by_name("payload");
  auto payload = CampaignRunner::run(*app, cfg);
  EXPECT_GE(payload.metrics.value(Counter::ScenarioPayloadFlips),
            cfg.trials);

  cfg.scenario = fsefi::scenario_by_name("state");
  auto state = CampaignRunner::run(*app, cfg);
  EXPECT_GE(state.metrics.value(Counter::ScenarioStateFlips), cfg.trials);
}

TEST(ScenarioCampaigns, CrashFamilyProducesOnlyCrashOutcomes) {
  const auto app = apps::make_app(apps::AppId::CG);
  DeploymentConfig cfg;
  cfg.nranks = 2;
  cfg.trials = 10;
  cfg.scenario = fsefi::scenario_by_name("crash");
  const auto result = CampaignRunner::run(*app, cfg);
  EXPECT_EQ(result.overall.trials, cfg.trials);
  EXPECT_EQ(result.overall.crash, cfg.trials);
  EXPECT_EQ(result.overall.success, 0u);
  EXPECT_EQ(result.overall.sdc, 0u);
  EXPECT_EQ(result.overall.failure, 0u);
  EXPECT_EQ(result.metrics.value(Counter::ScenarioRankCrashes), cfg.trials);
  // Fail-stop kills a rank without corrupting any delivered value, so
  // crash trials land in the x = 0 bucket — outside the propagation
  // statistics, which start at x = 1.
  ASSERT_GT(result.contamination_hist.size(), 1u);
  EXPECT_EQ(result.contamination_hist[0], cfg.trials);
  EXPECT_EQ(result.by_contamination[0].crash, cfg.trials);
}

// ---- Poisson fast-forward refusal -----------------------------------------

// A multi-fault (Poisson-style) plan whose first fault precedes every
// stored boundary must refuse to fast-forward — restoring at any stored
// checkpoint would skip the first injection — and produce output
// bit-identical to a cold run. The late single-fault control proves the
// refusal assertion has teeth (the same machinery does restore when the
// plan allows it).
TEST(PoissonFastForward, EarlyFirstFaultRefusesRestoreBitIdentically) {
  const auto app = apps::make_app(apps::AppId::CG);
  const int nranks = 2;
  const auto golden = harness::profile_app(*app, nranks);
  ASSERT_NE(golden.checkpoints, nullptr);

  std::vector<fsefi::InjectionPlan> plans(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto& plan = plans[static_cast<std::size_t>(r)];
    const std::uint64_t matching =
        golden.profiles[static_cast<std::size_t>(r)].matching(plan.kinds,
                                                              plan.regions);
    ASSERT_GT(matching, 4u);
    // Two arrivals on one timeline; the first is before the earliest
    // boundary (op 0), which rules out every stored checkpoint.
    plan.points = {{.op_index = 0, .operand = 0, .bit = 40},
                   {.op_index = matching / 2, .operand = 0, .bit = 41}};
  }
  harness::RunOptions with;
  with.checkpoints = golden.checkpoints.get();
  const auto ff = harness::run_app_once(*app, nranks, plans, with);
  const auto cold = harness::run_app_once(*app, nranks, plans, {});
  EXPECT_FALSE(ff.checkpoint_restored);
  EXPECT_FALSE(cold.checkpoint_restored);
  EXPECT_EQ(ff.runtime.ok, cold.runtime.ok);
  ASSERT_EQ(ff.result.has_value(), cold.result.has_value());
  if (ff.result && cold.result) {
    EXPECT_EQ(ff.result->signature, cold.result->signature);
    EXPECT_EQ(ff.result->iterations, cold.result->iterations);
  }
  EXPECT_EQ(ff.contaminated, cold.contaminated);

  // Control: pushing the first fault past the stored boundaries engages
  // the restore on the same golden data.
  for (auto& plan : plans) plan.points.erase(plan.points.begin());
  const auto late = harness::run_app_once(*app, nranks, plans, with);
  EXPECT_TRUE(late.checkpoint_restored);
}

// ---- saved-campaign compatibility -----------------------------------------

// Verbatim output of the pre-scenario CLI (commit b2c8116):
//   resilience campaign --app CG --ranks 2 --trials 8 --save <file>
// The schema has no "scenario" key; loading must synthesize the implicit
// paper scenario, re-saving must reproduce the file byte for byte, and
// rerunning the deployment must reproduce the recorded tallies.
constexpr const char* kPreScenarioCampaign =
#include "pre_scenario_campaign.inc"
    ;

TEST(SavedCampaignCompat, PreScenarioFileLoadsRerunsAndResavesByteIdentically) {
  const CampaignResult loaded =
      harness::campaign_from_json(util::Json::parse(kPreScenarioCampaign));
  EXPECT_TRUE(loaded.config.scenario.legacy());
  EXPECT_EQ(loaded.config.scenario, FaultScenario{});

  // Re-save: same bytes as the pre-scenario writer produced.
  EXPECT_EQ(harness::to_json(loaded).dump(2) + "\n", kPreScenarioCampaign);

  // Rerun: the loaded config must draw and execute the same trials.
  const auto app = apps::make_app(apps::AppId::CG);
  const CampaignResult rerun = CampaignRunner::run(*app, loaded.config);
  EXPECT_EQ(rerun.overall.trials, loaded.overall.trials);
  EXPECT_EQ(rerun.overall.success, loaded.overall.success);
  EXPECT_EQ(rerun.overall.sdc, loaded.overall.sdc);
  EXPECT_EQ(rerun.overall.failure, loaded.overall.failure);
  EXPECT_EQ(rerun.overall.crash, loaded.overall.crash);
  EXPECT_EQ(rerun.contamination_hist, loaded.contamination_hist);
  EXPECT_EQ(rerun.golden.signature, loaded.golden.signature);
}

TEST(SavedCampaignCompat, ScenarioConfigsRoundTripThroughTheSchema) {
  const auto app = apps::make_app(apps::AppId::CG);
  for (const char* name : {"payload", "state", "poisson", "crash"}) {
    DeploymentConfig cfg;
    cfg.nranks = 2;
    cfg.trials = 6;
    cfg.scenario = fsefi::scenario_by_name(name);
    const CampaignResult result = CampaignRunner::run(*app, cfg);
    const CampaignResult back =
        harness::campaign_from_json(harness::to_json(result));
    EXPECT_EQ(back.config.scenario, cfg.scenario) << name;
    EXPECT_EQ(back.overall.crash, result.overall.crash) << name;
    EXPECT_EQ(fingerprint(back), fingerprint(result)) << name;
  }
}

}  // namespace
}  // namespace resilience
