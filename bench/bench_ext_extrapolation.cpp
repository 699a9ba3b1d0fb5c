// Extension study: scale extrapolation with uncertainty — the "future
// extreme scale" use the paper's conclusion points at. One set of serial
// sweeps (sampled for the largest scale) plus one 8-rank campaign
// predicts every scale from 16 to 128; bootstrap resampling puts a 95%
// confidence interval on each prediction, and three scales are validated
// by measurement.
#include "bench_common.hpp"
#include "core/bootstrap.hpp"
#include "harness/campaign.hpp"
#include "util/rng.hpp"

int main() {
  using namespace resilience;
  const auto base = util::BenchConfig::from_env();
  util::BenchConfig cfg = base;
  cfg.trials = std::max<std::size_t>(base.trials / 2, 50);
  bench::print_header(
      "Extension: multi-scale extrapolation with bootstrap 95% CIs (CG, "
      "serial + 8 ranks)",
      cfg);

  const auto app = apps::make_app(apps::AppId::CG);
  constexpr int kSmallP = 8;
  constexpr int kMaxP = 128;

  // One serial sweep for the largest scale serves every target scale.
  core::SerialSweep sweep;
  sweep.large_p = kMaxP;
  sweep.sample_x = core::SerialSweep::sample_points(kMaxP, kSmallP);
  for (int x : sweep.sample_x) {
    harness::DeploymentConfig dep;
    dep.nranks = 1;
    dep.errors_per_test = x;
    dep.scenario.regions = fsefi::RegionMask::Common;
    dep.trials = cfg.trials;
    dep.seed = util::derive_seed(cfg.seed, static_cast<std::uint64_t>(x));
    sweep.results.push_back(harness::CampaignRunner::run(*app, dep).overall);
  }

  harness::DeploymentConfig small_dep;
  small_dep.nranks = kSmallP;
  small_dep.trials = cfg.trials;
  small_dep.seed = cfg.seed;
  const auto small = core::SmallScaleObservation::from_campaign(
      harness::CampaignRunner::run(*app, small_dep));

  util::TablePrinter table({"scale p", "predicted success", "95% CI",
                            "measured"});
  for (int p : {16, 32, 64, 128}) {
    const auto rescaled = core::rescale_sweep(sweep, p);
    const core::ResiliencePredictor predictor(rescaled, small, {});
    const double predicted = predictor.predict(p).combined.success;
    const auto ci = core::bootstrap_prediction(rescaled, small, {}, p);

    std::string measured = "-";
    if (p == 16 || p == 64 || p == 128) {
      harness::DeploymentConfig dep;
      dep.nranks = p;
      dep.trials = cfg.trials;
      dep.seed = cfg.seed;
      measured = bench::pct(
          harness::CampaignRunner::run(*app, dep).overall.success_rate());
    }
    // Appended, not `"[" + ...`: GCC 12's -O3 inlining of the
    // operator+ overloads that insert into their right operand raises a
    // bogus -Wrestrict.
    std::string interval("[");
    interval += bench::pct(ci.lo);
    interval += ", ";
    interval += bench::pct(ci.hi);
    interval += "]";
    table.add_row({std::to_string(p), bench::pct(predicted), interval,
                   measured});
  }
  table.print();
  std::cout << "\nThe prediction cost is constant in p (the paper's core "
               "claim); only the validation campaigns grow with scale.\n";
  return 0;
}
