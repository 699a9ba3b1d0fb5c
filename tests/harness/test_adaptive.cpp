// Adaptive campaign engine (DESIGN.md §12): seeded determinism of the
// stopping point across execution modes, CI-driven early stopping,
// stratified sampling and post-stratified unbiasedness, and the
// trials-saved telemetry.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace resilience::harness {
namespace {

DeploymentConfig adaptive_config(int nranks, std::size_t cap) {
  DeploymentConfig cfg;
  cfg.nranks = nranks;
  cfg.trials = cap;
  cfg.adaptive.enabled = true;
  cfg.adaptive.batch = 16;
  cfg.adaptive.min_trials = 32;
  return cfg;
}

void expect_same_outcomes(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_TRUE(a.adaptive.has_value());
  ASSERT_TRUE(b.adaptive.has_value());
  EXPECT_EQ(a.adaptive->trials_executed, b.adaptive->trials_executed);
  EXPECT_EQ(a.adaptive->stop_reason, b.adaptive->stop_reason);
  EXPECT_EQ(a.overall.trials, b.overall.trials);
  EXPECT_EQ(a.overall.success, b.overall.success);
  EXPECT_EQ(a.overall.sdc, b.overall.sdc);
  EXPECT_EQ(a.overall.failure, b.overall.failure);
  EXPECT_EQ(a.contamination_hist, b.contamination_hist);
  EXPECT_DOUBLE_EQ(a.adaptive->success.rate, b.adaptive->success.rate);
  EXPECT_DOUBLE_EQ(a.adaptive->success.lo, b.adaptive->success.lo);
  EXPECT_DOUBLE_EQ(a.adaptive->success.hi, b.adaptive->success.hi);
}

TEST(Adaptive, UnstratifiedCapRunEqualsFixedCampaign) {
  // With stratification off, adaptive trial j shares the fixed path's
  // seed stream derive_seed(seed, j); a run that reaches the cap must
  // therefore classify exactly the fixed campaign's outcomes.
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig fixed;
  fixed.nranks = 2;
  fixed.trials = 48;
  DeploymentConfig adaptive = fixed;
  adaptive.adaptive.enabled = true;
  adaptive.adaptive.stratify = false;
  adaptive.adaptive.batch = 16;
  adaptive.adaptive.ci_half_width = 1e-4;  // unreachable: run to the cap

  const auto a = CampaignRunner::run(*app, fixed);
  const auto b = CampaignRunner::run(*app, adaptive);
  EXPECT_FALSE(a.adaptive.has_value());
  ASSERT_TRUE(b.adaptive.has_value());
  EXPECT_EQ(b.adaptive->stop_reason, StopReason::TrialCap);
  EXPECT_EQ(b.adaptive->trials_executed, fixed.trials);
  EXPECT_EQ(a.overall.success, b.overall.success);
  EXPECT_EQ(a.overall.sdc, b.overall.sdc);
  EXPECT_EQ(a.overall.failure, b.overall.failure);
  EXPECT_EQ(a.contamination_hist, b.contamination_hist);
}

TEST(Adaptive, StoppingPointIsWorkerCountInvariant) {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg = adaptive_config(2, 96);
  cfg.adaptive.ci_half_width = 0.08;
  cfg.max_workers = 1;
  const auto serial = CampaignRunner::run(*app, cfg);
  cfg.max_workers = 4;
  const auto parallel = CampaignRunner::run(*app, cfg);
  expect_same_outcomes(serial, parallel);
  // Deterministic batch boundaries make the whole snapshot logically
  // equal, trials-saved counters included.
  EXPECT_TRUE(serial.metrics.logical_equal(parallel.metrics));
}

TEST(Adaptive, StoppingPointIsCheckpointInvariant) {
  const auto app = apps::make_app(apps::AppId::LU);
  const DeploymentConfig cfg = adaptive_config(2, 96);
  const auto with_ckpt = CampaignRunner::run(*app, cfg);
  set_checkpoint_enabled(false);
  const auto without = CampaignRunner::run(*app, cfg);
  set_checkpoint_enabled(true);
  expect_same_outcomes(with_ckpt, without);
}

TEST(Adaptive, ConvergedStopSavesTrialsAndCountsThem) {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg = adaptive_config(2, 400);
  cfg.adaptive.ci_half_width = 0.12;  // loose: stop well before the cap
  const auto result = CampaignRunner::run(*app, cfg);
  ASSERT_TRUE(result.adaptive.has_value());
  const auto& stats = *result.adaptive;
  EXPECT_EQ(stats.stop_reason, StopReason::Converged);
  EXPECT_LT(stats.trials_executed, stats.trials_requested);
  EXPECT_GE(stats.trials_executed, cfg.adaptive.min_trials);
  EXPECT_EQ(result.overall.trials, stats.trials_executed);
  EXPECT_GT(stats.trial_reduction(), 1.0);
  EXPECT_EQ(result.metrics.value(telemetry::Counter::CampaignTrialsSaved),
            stats.trials_requested - stats.trials_executed);
  EXPECT_EQ(result.metrics.value(telemetry::Counter::CampaignStrata),
            stats.strata);
  // Each tracked outcome met its target.
  for (const auto* iv : {&stats.success, &stats.sdc, &stats.failure}) {
    EXPECT_LE(iv->half_width(), cfg.adaptive.ci_half_width + 1e-12);
    EXPECT_TRUE(iv->contains(iv->rate));
  }
}

TEST(Adaptive, StratifiedEstimateIsConsistentWithUniform) {
  // Post-stratification must estimate the same quantity the uniform
  // campaign measures. Both runs are independent noisy estimates, so
  // requiring each point inside the other's interval is a coin flip at
  // these sample sizes; under unbiasedness the two 95% envelopes must
  // overlap (a disjoint pair at n = 300 would be a >3-sigma event), and
  // the points must agree within the combined half-widths.
  for (const auto id : {apps::AppId::CG, apps::AppId::FT}) {
    const auto app = apps::make_app(id);
    DeploymentConfig uniform;
    uniform.nranks = 4;
    uniform.trials = 300;
    DeploymentConfig stratified = uniform;
    stratified.adaptive.enabled = true;
    stratified.adaptive.batch = 50;
    stratified.adaptive.ci_half_width = 1e-4;  // run the full cap

    const auto u = CampaignRunner::run(*app, uniform);
    const auto s = CampaignRunner::run(*app, stratified);
    ASSERT_TRUE(s.adaptive.has_value()) << app->label();
    ASSERT_TRUE(s.adaptive->stratified) << app->label();
    EXPECT_GT(s.adaptive->strata, 1u) << app->label();

    const auto uniform_ci =
        util::wilson_interval(u.overall.success, u.overall.trials);
    const auto& strat = s.adaptive->success;
    EXPECT_LE(strat.lo, uniform_ci.hi) << app->label();
    EXPECT_GE(strat.hi, uniform_ci.lo) << app->label();
    EXPECT_NEAR(strat.rate, u.overall.success_rate(),
                strat.half_width() + uniform_ci.half_width())
        << app->label();

    // Post-stratified propagation is a distribution over 1..nranks.
    const auto r = s.propagation_probabilities();
    double mass = 0.0;
    for (double v : r) {
      EXPECT_GE(v, 0.0);
      mass += v;
    }
    EXPECT_NEAR(mass, 1.0, 1e-9) << app->label();
  }
}

TEST(Adaptive, RelativeModeConverges) {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg = adaptive_config(2, 400);
  cfg.adaptive.ci_relative = 0.8;  // generous relative envelope
  const auto result = CampaignRunner::run(*app, cfg);
  ASSERT_TRUE(result.adaptive.has_value());
  EXPECT_EQ(result.adaptive->stop_reason, StopReason::Converged);
  EXPECT_LT(result.adaptive->trials_executed,
            result.adaptive->trials_requested);
}

TEST(Adaptive, MultiErrorDeploymentFallsBackToUnstratified) {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg = adaptive_config(1, 64);
  cfg.errors_per_test = 3;
  cfg.adaptive.ci_half_width = 1e-4;
  const auto result = CampaignRunner::run(*app, cfg);
  ASSERT_TRUE(result.adaptive.has_value());
  EXPECT_FALSE(result.adaptive->stratified);
  EXPECT_EQ(result.adaptive->strata, 1u);
  EXPECT_TRUE(result.adaptive->propagation.empty());
}

TEST(Adaptive, DisabledLeavesNoRecordOrCounters) {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg;
  cfg.nranks = 2;
  cfg.trials = 24;
  const auto result = CampaignRunner::run(*app, cfg);
  EXPECT_FALSE(result.adaptive.has_value());
  EXPECT_EQ(result.metrics.value(telemetry::Counter::CampaignTrialsSaved), 0u);
  EXPECT_EQ(result.metrics.value(telemetry::Counter::CampaignStrata), 0u);
}

}  // namespace
}  // namespace resilience::harness
