#include "harness/golden_cache.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "harness/campaign.hpp"
#include "harness/executor.hpp"

namespace resilience::harness {
namespace {

TEST(GoldenCache, SameAppAndRanksHitsOnce) {
  const auto app = apps::make_app(apps::AppId::LU);
  GoldenCache cache;
  const auto a = cache.get_or_profile(*app, 2);
  const auto b = cache.get_or_profile(*app, 2);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a.get(), b.get());  // the same profile object is reused
  EXPECT_EQ(a->signature, profile_app(*app, 2).signature);
}

TEST(GoldenCache, DifferentRanksAndAppsMiss) {
  const auto lu = apps::make_app(apps::AppId::LU);
  const auto mg = apps::make_app(apps::AppId::MG);
  GoldenCache cache;
  (void)cache.get_or_profile(*lu, 1);
  (void)cache.get_or_profile(*lu, 2);  // same app, other scale
  (void)cache.get_or_profile(*mg, 2);  // other app, same scale
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(GoldenCache, ConcurrentRequestsSingleFlight) {
  const auto app = apps::make_app(apps::AppId::MG);
  GoldenCache cache;
  std::vector<std::shared_ptr<const GoldenRun>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = cache.get_or_profile(*app, 2); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), got.size() - 1);
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
}

TEST(GoldenCache, ProfilesThroughExecutorWhenGiven) {
  const auto app = apps::make_app(apps::AppId::LU);
  Executor ex(2);
  GoldenCache cache;
  const auto golden = cache.get_or_profile(*app, 2, &ex);
  EXPECT_EQ(golden->signature, profile_app(*app, 2).signature);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(GoldenCache, ProfileFailureEvictsAndPropagates) {
  // FT does not support 3 ranks; profiling throws and must not poison the
  // cache for a later valid request.
  const auto app = apps::make_app(apps::AppId::FT);
  GoldenCache cache;
  EXPECT_THROW((void)cache.get_or_profile(*app, 3), std::exception);
  const auto golden = cache.get_or_profile(*app, 2);
  EXPECT_FALSE(golden->signature.empty());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(GoldenCache, CampaignUsesCachedGolden) {
  const auto app = apps::make_app(apps::AppId::LU);
  GoldenCache cache;
  CampaignContext ctx;
  ctx.golden_cache = &cache;
  DeploymentConfig cfg;
  cfg.nranks = 2;
  cfg.trials = 5;
  const auto a = CampaignRunner::run(*app, cfg, ctx);
  const auto b = CampaignRunner::run(*app, cfg, ctx);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a.golden.signature, b.golden.signature);
  // Cached goldens leave the campaign result itself unchanged.
  const auto plain = CampaignRunner::run(*app, cfg);
  EXPECT_EQ(a.overall.success, plain.overall.success);
  EXPECT_EQ(a.contamination_hist, plain.contamination_hist);
  EXPECT_EQ(a.golden.signature, plain.golden.signature);
}

}  // namespace
}  // namespace resilience::harness
