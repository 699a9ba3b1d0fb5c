// The three benchmark workloads. Each drives the library's public API in
// its default configuration: no RESILIENCE_* knob, executor/shard/scheduler
// widths on their own auto policy. Inputs are the fault-plan seeds, all
// derived from the workload seed; the applications' input problems are
// the paper's fixed classes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "core/model.hpp"
#include "core/study.hpp"
#include "fsefi/scenario.hpp"
#include "harness/golden_cache.hpp"
#include "harness/golden_store.hpp"
#include "harness/serialize.hpp"
#include "shard/coordinator.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using res::apps::AppId;
using res::harness::CampaignResult;
using res::harness::DeploymentConfig;

/// Worst per-benchmark success-prediction error of the paper's Figure 5
/// (serial + 4 ranks -> 64 ranks), as EXPERIMENTS.md records it.
constexpr double kFig5WorstError = 0.27;

/// The Figure 5 bound for studies of `trials` trials per campaign: widened
/// by three worst-case standard errors of a measured success rate, since
/// the benchmark's campaigns are smaller than the paper's.
double fig5_bound(std::size_t trials) {
  return kFig5WorstError + 3.0 * std::sqrt(0.25 / static_cast<double>(trials));
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string tally(const res::harness::FaultInjectionResult& r) {
  return std::to_string(r.trials) + "/" + std::to_string(r.success) + "/" +
         std::to_string(r.sdc) + "/" + std::to_string(r.failure) + "/" +
         std::to_string(r.crash);
}

bool tally_consistent(const res::harness::FaultInjectionResult& r) {
  return r.success + r.sdc + r.failure + r.crash == r.trials;
}

std::vector<std::unique_ptr<res::apps::App>> make_apps(
    const std::vector<AppId>& ids) {
  std::vector<std::unique_ptr<res::apps::App>> apps;
  for (AppId id : ids) apps.push_back(res::apps::make_app(id));
  return apps;
}

// ---- predict-64 -------------------------------------------------------------
// The paper's Figure 5 pipeline: run_study with S = 4 -> p = 64 and the
// measured 64-rank campaign on, for all six apps, fixed trials, the
// default ("paper") scenario.
class Predict64 final : public Workload {
 public:
  Predict64(std::uint64_t seed, bool tiny)
      : seed_(seed),
        trials_(tiny ? 24 : 100),
        apps_(make_apps(res::apps::all_app_ids())) {}

  const char* name() const override { return "predict-64"; }

  std::string inputs() const override {
    std::string text = "run_study S=4 p=64 trials=" + std::to_string(trials_);
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      text += ' ' + apps_[i]->name() + ':' + std::to_string(study_seed(i));
    }
    return text;
  }

  std::vector<Deployment> deployments() const override {
    std::vector<Deployment> out;
    for (AppId id : res::apps::all_app_ids()) {
      for (int p : {1, kSmall, kLarge}) out.push_back({id, p});
    }
    return out;
  }

  // run_study keeps its own golden cache, so this phase cannot warm the
  // studies; it times the same golden pre-pass as a phase of its own.
  SetupResult setup() override {
    const auto start = Clock::now();
    for (const auto& app : apps_) {
      for (int p : {1, kSmall, kLarge}) (void)res::harness::profile_app(*app, p);
    }
    const double s = seconds_since(start);
    return {s, s};
  }

  PassResult run_pass(Checks& checks) override {
    PassResult pass;
    last_.clear();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      res::core::StudyConfig cfg;
      cfg.small_p = kSmall;
      cfg.large_p = kLarge;
      cfg.trials = trials_;
      cfg.seed = study_seed(i);
      cfg.measure_large = true;
      last_.push_back(res::core::run_study(*apps_[i], cfg));
    }
    pass.wall_s = seconds_since(start);

    for (std::size_t i = 0; i < last_.size(); ++i) {
      const res::core::StudyResult& study = last_[i];
      checks.expect(study.success_error() <= fig5_bound(trials_),
                    apps_[i]->name() + " success-prediction error " +
                        fmt(study.success_error()) + " within the Fig. 5 bound");
      pass.serial_equiv_s += study.serial_injection_seconds +
                             study.small_injection_seconds +
                             study.large_injection_seconds;
      pass.core_serial_s += study.serial_injection_seconds;
      pass.core_small_s += study.small_injection_seconds;
      pass.core_large_s += study.large_injection_seconds;
      pass.trials +=
          study.metrics.value(res::telemetry::Counter::HarnessTrials);
      pass.metrics.add(study.metrics);
      pass.digest += apps_[i]->name() + " predicted " +
                     fmt(study.predicted_success()) + " measured " +
                     tally(*study.measured_large) + " unique " +
                     fmt(study.prob_unique) + "\n";
    }
    pass.requested = pass.trials;
    return pass;
  }

  DeploymentConfig probe_config() const override {
    DeploymentConfig cfg;
    cfg.nranks = kLarge;
    cfg.trials = 32;
    cfg.seed = study_seed(0);
    return cfg;
  }

  double predictor_us() const override {
    if (last_.empty()) return 0.0;
    constexpr int kReps = 200;
    volatile double sink = 0.0;  // keeps the predictions observable
    const auto start = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (const res::core::StudyResult& study : last_) {
        const res::core::ResiliencePredictor predictor(study.sweep, study.small);
        sink = sink + predictor.predict(kLarge).combined.success;
      }
    }
    return seconds_since(start) * 1e6 /
           (kReps * static_cast<double>(last_.size()));
  }

 private:
  static constexpr int kSmall = 4;
  static constexpr int kLarge = 64;

  std::uint64_t study_seed(std::size_t app_index) const {
    return res::util::derive_seed(seed_, kLarge, app_index);
  }

  std::uint64_t seed_;
  std::size_t trials_;
  std::vector<std::unique_ptr<res::apps::App>> apps_;
  std::vector<res::core::StudyResult> last_;
};

// ---- serial-sweep -----------------------------------------------------------
// The paper's FI_ser_x inputs: 1-rank fixed campaigns with x in {1,2,4,8}
// errors per test over the six apps, all sharing one golden cache that the
// set-up phase fills.
class SerialSweep final : public Workload {
 public:
  SerialSweep(std::uint64_t seed, bool tiny)
      : seed_(seed),
        trials_(tiny ? 16 : 400),
        apps_(make_apps(res::apps::all_app_ids())) {}

  const char* name() const override { return "serial-sweep"; }

  std::string inputs() const override {
    std::string text = "serial campaigns x=1,2,4,8 trials=" +
                       std::to_string(trials_) + " seeds:";
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      for (int x : kErrors) text += ' ' + std::to_string(config(i, x).seed);
    }
    return text;
  }

  std::vector<Deployment> deployments() const override {
    std::vector<Deployment> out;
    for (AppId id : res::apps::all_app_ids()) out.push_back({id, 1});
    return out;
  }

  SetupResult setup() override {
    cache_ = std::make_unique<res::harness::GoldenCache>();
    const auto start = Clock::now();
    for (const auto& app : apps_) (void)cache_->get_or_profile(*app, 1);
    const double s = seconds_since(start);
    return {s, s};
  }

  // The reference is the same pass under a trace session: tracing must
  // not change an outcome or a logical counter.
  Reference reference() override {
    Checks unused;
    res::telemetry::TraceSession::start(std::make_shared<TraceStats>());
    PassResult traced = run_pass(unused);
    res::telemetry::TraceSession::stop();
    return {std::move(traced.digest), traced.metrics};
  }

  PassResult run_pass(Checks& checks) override {
    PassResult pass;
    res::harness::CampaignContext ctx;
    ctx.golden_cache = cache_.get();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      for (int x : kErrors) {
        const CampaignResult r =
            res::harness::CampaignRunner::run(*apps_[i], config(i, x), ctx);
        checks.expect(r.overall.trials == trials_ && tally_consistent(r.overall),
                      apps_[i]->name() + " x=" + std::to_string(x) +
                          " ran every trial with one outcome each");
        pass.serial_equiv_s += r.wall_seconds;
        pass.trials += r.overall.trials;
        pass.metrics.add(r.metrics);
        pass.digest += apps_[i]->name() + " x=" + std::to_string(x) + " " +
                       tally(r.overall) + "\n";
      }
    }
    pass.wall_s = seconds_since(start);
    pass.requested = pass.trials;
    return pass;
  }

  DeploymentConfig probe_config() const override {
    DeploymentConfig cfg = config(0, 1);
    cfg.trials = 32;
    return cfg;
  }

 private:
  static constexpr int kErrors[] = {1, 2, 4, 8};

  DeploymentConfig config(std::size_t app_index, int errors) const {
    DeploymentConfig cfg;
    cfg.nranks = 1;
    cfg.errors_per_test = errors;
    cfg.trials = trials_;
    cfg.seed = res::util::derive_seed(seed_, app_index,
                                      static_cast<std::uint64_t>(errors));
    return cfg;
  }

  std::uint64_t seed_;
  std::size_t trials_;
  std::vector<std::unique_ptr<res::apps::App>> apps_;
  std::unique_ptr<res::harness::GoldenCache> cache_;
};

// ---- adaptive-sharded -------------------------------------------------------
// Adaptive campaigns at 8 ranks to a +-2% CI on min(4, nproc) shard
// worker processes, against one golden-store directory the set-up phase
// fills: CG and PENNANT x the "paper" and "payload" scenarios.
class AdaptiveSharded final : public Workload {
 public:
  AdaptiveSharded(std::uint64_t seed, bool tiny, const std::string& work_dir)
      : seed_(seed),
        tiny_(tiny),
        store_dir_(work_dir + "/golden-store"),
        shards_(static_cast<int>(
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u))),
        apps_(make_apps({AppId::CG, AppId::PENNANT})) {}

  const char* name() const override { return "adaptive-sharded"; }
  bool sharded() const override { return true; }

  std::string inputs() const override {
    std::string text = "adaptive p=8 shards=" + std::to_string(shards_) +
                       " ci=" + fmt(config(0, 0).adaptive.ci_half_width) +
                       " cap=" + std::to_string(config(0, 0).trials) + " seeds:";
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
        text += ' ' + std::to_string(config(a, s).seed);
      }
    }
    return text;
  }

  std::vector<Deployment> deployments() const override {
    return {{AppId::CG, kRanks}, {AppId::PENNANT, kRanks}};
  }

  // Fill a fresh store, then start the shard workers once: a fixed
  // campaign of one trial per worker, so start-up before the first trial
  // (spawn, handshake, golden load) is in the set-up time.
  SetupResult setup() override {
    std::filesystem::remove_all(store_dir_);
    const auto start = Clock::now();
    {
      res::harness::GoldenStore store(store_dir_);
      for (const auto& app : apps_) {
        store.put(*app, kRanks, res::harness::profile_app(*app, kRanks));
      }
    }
    const double fill = seconds_since(start);
    DeploymentConfig warm = config(0, 0);
    warm.adaptive.enabled = false;
    warm.trials = static_cast<std::size_t>(shards_);
    (void)res::shard::run_sharded_campaign(*apps_[0], warm, shard_options());
    return {seconds_since(start), fill};
  }

  // The in-process CampaignRunner::run of every config. It runs each job
  // on one scheduler worker (an execution-policy override that leaves
  // results bit-identical) so the reference costs ~4 s, not ~30 s.
  Reference reference() override {
    struct SchedulerOverride {
      SchedulerOverride() { res::simmpi::detail::set_scheduler_workers(1); }
      ~SchedulerOverride() { res::simmpi::detail::set_scheduler_workers(-1); }
    } one_worker;
    Reference ref;
    strict_ref_.clear();
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
        const CampaignResult r =
            res::harness::CampaignRunner::run(*apps_[a], config(a, s));
        strict_ref_.push_back(canonical(r, true));
        ref.digest += canonical(r, false);
      }
    }
    return ref;
  }

  PassResult run_pass(Checks& checks) override {
    PassResult pass;
    const auto start = Clock::now();
    std::vector<CampaignResult> results;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
        results.push_back(res::shard::run_sharded_campaign(
            *apps_[a], config(a, s), shard_options()));
      }
    }
    pass.wall_s = seconds_since(start);

    for (std::size_t k = 0; k < results.size(); ++k) {
      const CampaignResult& r = results[k];
      const bool converged =
          r.adaptive.has_value() &&
          r.adaptive->stop_reason == res::harness::StopReason::Converged;
      checks.expect(converged && tally_consistent(r.overall),
                    "adaptive campaign converged to its CI target");
      pass.serial_equiv_s += r.wall_seconds;
      pass.trials += r.overall.trials;
      pass.requested += r.config.trials;
      pass.metrics.add(r.metrics);
      pass.digest += canonical(r, false);
      if (k < strict_ref_.size() && canonical(r, true) != strict_ref_[k]) {
        const std::size_t n = std::size(kScenarios);
        std::cout << "perfbench note: " << apps_[k / n]->name() << ' '
                  << kScenarios[k % n]
                  << ": Failure-trial contamination counts differ from the "
                     "in-process reference\n";
      }
    }
    return pass;
  }

  DeploymentConfig probe_config() const override {
    DeploymentConfig cfg = config(0, 0);
    cfg.adaptive.enabled = false;
    cfg.trials = 32;
    return cfg;
  }

 private:
  static constexpr int kRanks = 8;
  static constexpr const char* kScenarios[] = {"paper", "payload"};

  DeploymentConfig config(std::size_t app_index, std::size_t scenario) const {
    DeploymentConfig cfg;
    cfg.nranks = kRanks;
    cfg.scenario = res::fsefi::scenario_by_name(kScenarios[scenario]);
    cfg.trials = tiny_ ? 256 : 4000;
    cfg.seed = res::util::derive_seed(seed_, app_index, scenario);
    cfg.adaptive.enabled = true;
    cfg.adaptive.ci_half_width = tiny_ ? 0.1 : 0.02;
    return cfg;
  }

  res::shard::ShardOptions shard_options() const {
    res::shard::ShardOptions opts;
    opts.shards = shards_;
    opts.golden_store_dir = store_dir_;
    return opts;
  }

  /// The saved-campaign JSON minus its one timing-born field. Unless
  /// `strict`, also minus what depends on the contamination counts of
  /// Failure trials: how many ranks an aborted job contaminated before
  /// teardown depends on the schedule (seen on PENNANT), so the Failure
  /// column of the contamination profile and the post-stratified r_x that
  /// counts it vary between executions of one seed.
  static std::string canonical(CampaignResult r, bool strict) {
    r.wall_seconds = 0.0;
    if (!strict) {
      if (r.adaptive) r.adaptive->propagation.clear();
      for (std::size_t x = 0; x < r.by_contamination.size(); ++x) {
        auto& bucket = r.by_contamination[x];
        r.contamination_hist[x] -= bucket.failure;
        bucket.trials -= bucket.failure;
        bucket.failure = 0;
      }
    }
    return res::harness::to_json(r).dump() + "\n";
  }

  std::uint64_t seed_;
  bool tiny_;
  std::string store_dir_;
  int shards_;
  std::vector<std::unique_ptr<res::apps::App>> apps_;
  std::vector<std::string> strict_ref_;  ///< per campaign, strict form
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        const std::string& work_dir) {
  if (name == "predict-64") return std::make_unique<Predict64>(seed, tiny);
  if (name == "serial-sweep") return std::make_unique<SerialSweep>(seed, tiny);
  if (name == "adaptive-sharded") {
    return std::make_unique<AdaptiveSharded>(seed, tiny, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
