#include "harness/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "apps/app.hpp"

namespace resilience::harness {
namespace {

CampaignResult sample_campaign() {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 20;
  cfg.scenario.pattern = fsefi::FaultPattern::DoubleBit;
  cfg.seed = 99;
  return CampaignRunner::run(*app, cfg);
}

TEST(Serialize, JsonRoundTripPreservesEverything) {
  const auto original = sample_campaign();
  const auto restored =
      campaign_from_json(util::Json::parse(to_json(original).dump()));

  EXPECT_EQ(restored.config.nranks, original.config.nranks);
  EXPECT_EQ(restored.config.trials, original.config.trials);
  EXPECT_EQ(restored.config.seed, original.config.seed);
  EXPECT_EQ(static_cast<int>(restored.config.scenario.pattern),
            static_cast<int>(original.config.scenario.pattern));
  EXPECT_EQ(restored.overall.success, original.overall.success);
  EXPECT_EQ(restored.overall.sdc, original.overall.sdc);
  EXPECT_EQ(restored.overall.failure, original.overall.failure);
  EXPECT_EQ(restored.contamination_hist, original.contamination_hist);
  ASSERT_EQ(restored.by_contamination.size(),
            original.by_contamination.size());
  for (std::size_t i = 0; i < restored.by_contamination.size(); ++i) {
    EXPECT_EQ(restored.by_contamination[i].success,
              original.by_contamination[i].success);
  }
  EXPECT_EQ(restored.golden.signature, original.golden.signature);
  EXPECT_EQ(restored.golden.max_rank_ops, original.golden.max_rank_ops);
  ASSERT_EQ(restored.golden.profiles.size(), original.golden.profiles.size());
  for (std::size_t r = 0; r < restored.golden.profiles.size(); ++r) {
    EXPECT_EQ(restored.golden.profiles[r].total(),
              original.golden.profiles[r].total());
  }
  EXPECT_DOUBLE_EQ(restored.wall_seconds, original.wall_seconds);
}

TEST(Serialize, RestoredCampaignFeedsTheModel) {
  // Propagation probabilities — the model's input — survive the round trip.
  const auto original = sample_campaign();
  const auto restored =
      campaign_from_json(util::Json::parse(to_json(original).dump()));
  EXPECT_EQ(restored.propagation_probabilities(),
            original.propagation_probabilities());
}

TEST(Serialize, FileRoundTrip) {
  const auto original = sample_campaign();
  const std::string path = ::testing::TempDir() + "/resilience_campaign.json";
  save_campaign(path, original);
  const auto restored = load_campaign(path);
  EXPECT_EQ(restored.overall.success, original.overall.success);
  EXPECT_EQ(restored.contamination_hist, original.contamination_hist);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_campaign("/nonexistent_dir_xyz/campaign.json"),
               std::runtime_error);
  const auto original = sample_campaign();
  EXPECT_THROW(save_campaign("/nonexistent_dir_xyz/campaign.json", original),
               std::runtime_error);
}

TEST(Serialize, SchemaVersionEnforced) {
  auto json = to_json(sample_campaign());
  util::JsonObject obj = json.as_object();
  obj["version"] = util::Json(999);
  EXPECT_THROW(campaign_from_json(util::Json(std::move(obj))),
               util::JsonError);
}

TEST(Serialize, InconsistentCountsRejected) {
  auto json = to_json(sample_campaign());
  util::JsonObject obj = json.as_object();
  util::JsonObject overall = obj["overall"].as_object();
  overall["success"] = util::Json(9999);
  obj["overall"] = util::Json(std::move(overall));
  EXPECT_THROW(campaign_from_json(util::Json(std::move(obj))),
               util::JsonError);
}

/// `json` with the value at the object path `path` set to `value`.
util::Json with_int(const util::Json& json, std::span<const std::string> path,
                    std::int64_t value) {
  if (path.empty()) return util::Json(value);
  util::JsonObject obj = json.as_object();
  obj[path.front()] = with_int(obj.at(path.front()), path.subspan(1), value);
  return util::Json(std::move(obj));
}

// Enums are range-checked on load: a raw cast of an out-of-range integer
// would hand the runner an enumerator that does not exist.
TEST(Serialize, OutOfRangeEnumsRejected) {
  CampaignResult campaign = sample_campaign();
  campaign.adaptive = AdaptiveStats{};
  const util::Json legacy = to_json(campaign);
  // The same file with a full scenario block (non-legacy scenarios).
  util::JsonObject scenario;
  scenario["domain"] = util::Json(0);
  scenario["pattern"] = util::Json(0);
  scenario["arrival"] = util::Json(0);
  scenario["kinds"] = legacy.at("config").at("kinds");
  scenario["regions"] = legacy.at("config").at("regions");
  scenario["mtbf_factor"] = util::Json(1.0);
  util::JsonObject config = legacy.at("config").as_object();
  config["scenario"] = util::Json(std::move(scenario));
  util::JsonObject obj = legacy.as_object();
  obj["config"] = util::Json(std::move(config));
  const util::Json full(std::move(obj));

  struct Field {
    const util::Json* file;
    std::vector<std::string> path;
    int last;
  };
  const Field fields[] = {
      {&legacy, {"config", "selection"},
       static_cast<int>(TargetSelection::UniformRank)},
      {&legacy, {"config", "pattern"},
       static_cast<int>(fsefi::FaultPattern::RankCrash)},
      {&legacy, {"adaptive", "stop_reason"},
       static_cast<int>(StopReason::TrialCap)},
      {&full, {"config", "scenario", "domain"},
       static_cast<int>(fsefi::FaultDomain::ResidentState)},
      {&full, {"config", "scenario", "pattern"},
       static_cast<int>(fsefi::FaultPattern::RankCrash)},
      {&full, {"config", "scenario", "arrival"},
       static_cast<int>(fsefi::ArrivalModel::PoissonTimeline)},
  };
  for (const Field& f : fields) {
    SCOPED_TRACE(f.path.back());
    EXPECT_NO_THROW(
        (void)campaign_from_json(with_int(*f.file, f.path, f.last)));
    for (const std::int64_t bad : {std::int64_t{f.last} + 1, std::int64_t{-1},
                                   std::int64_t{1} << 40}) {
      EXPECT_THROW((void)campaign_from_json(with_int(*f.file, f.path, bad)),
                   util::JsonError)
          << bad;
    }
  }
}

}  // namespace
}  // namespace resilience::harness
