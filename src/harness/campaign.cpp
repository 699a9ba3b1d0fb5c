#include "harness/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "harness/campaign_engine.hpp"
#include "harness/executor.hpp"
#include "harness/golden_cache.hpp"

namespace resilience::harness {

const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::Success:
      return "Success";
    case Outcome::SDC:
      return "SDC";
    case Outcome::Failure:
      return "Failure";
    case Outcome::Crash:
      return "Crash";
  }
  return "?";
}

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Converged:
      return "converged";
    case StopReason::TrialCap:
      return "trial-cap";
  }
  return "?";
}

double signature_deviation(const std::vector<double>& a,
                           const std::vector<double>& b, double floor) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i])) return std::numeric_limits<double>::infinity();
    const double scale = std::max(std::abs(b[i]), floor);
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

Outcome CampaignRunner::classify(const RunOutput& out,
                                 const std::vector<double>& golden_signature,
                                 double tolerance) {
  // A planned rank death is the fault itself, not a symptom of one: the
  // abort that tears the job down classifies as Crash, not Failure.
  if (out.crashed) return Outcome::Crash;
  if (!out.runtime.ok || !out.result.has_value()) return Outcome::Failure;
  const auto& sig = out.result->signature;
  if (sig == golden_signature) return Outcome::Success;  // bit-identical
  const double dev = signature_deviation(sig, golden_signature);
  // "Different from the fault-free run but passes the application
  // checkers" (paper Success case 1).
  return dev <= tolerance ? Outcome::Success : Outcome::SDC;
}

std::vector<double> CampaignResult::propagation_probabilities() const {
  if (adaptive.has_value() && !adaptive->propagation.empty()) {
    return adaptive->propagation;
  }
  std::size_t injected_total = 0;
  for (std::size_t x = 1; x < contamination_hist.size(); ++x) {
    injected_total += contamination_hist[x];
  }
  std::vector<double> r(static_cast<std::size_t>(config.nranks), 0.0);
  if (injected_total == 0) return r;
  for (std::size_t x = 1; x < contamination_hist.size(); ++x) {
    r[x - 1] = static_cast<double>(contamination_hist[x]) /
               static_cast<double>(injected_total);
  }
  return r;
}

CampaignResult CampaignRunner::run(const apps::App& app,
                                   const DeploymentConfig& cfg) {
  return run(app, cfg, CampaignContext{});
}

CampaignResult CampaignRunner::run(const apps::App& app,
                                   const DeploymentConfig& cfg,
                                   const CampaignContext& context) {
  // The campaign's accounting domain. Every count below — whether from
  // this thread, an executor worker running a trial chunk, or a rank
  // fiber inside a job — lands here; totals roll up into the study's
  // scope (if any) when this scope dies.
  telemetry::MetricScope metrics(context.metrics_parent);
  telemetry::TraceSpan span("harness", "campaign", "trials", cfg.trials);

  CampaignResult result;
  result.config = cfg;
  {
    telemetry::ScopeGuard guard(&metrics);
    telemetry::count(telemetry::Counter::HarnessCampaigns);
    if (context.golden_cache != nullptr) {
      result.golden = *context.golden_cache->get_or_profile(app, cfg.nranks,
                                                            context.executor);
    } else {
      result.golden = profile_app(app, cfg.nranks);
      telemetry::count(telemetry::Counter::HarnessGoldenProfiles);
    }
  }

  Executor* executor = context.executor;
  std::unique_ptr<Executor> local_executor;
  if (executor == nullptr && cfg.trials > 1) {
    const int workers = Executor::resolve_workers(cfg.max_workers);
    if (workers > 1) {
      local_executor = std::make_unique<Executor>(workers);
      executor = local_executor.get();
    }
  }

  // Run one batch inline when there is no executor; otherwise as
  // contiguous chunks, several per worker: large enough to amortise
  // queueing, small enough that the tail stays balanced.
  run_campaign_loop(app, result, metrics,
                    [&](const TrialSpace& space,
                        const std::vector<TrialRef>& refs,
                        std::vector<TrialResult>& out) {
    // The executing thread may be this one or an executor worker; the
    // scope push makes each trial's counts land in this campaign's scope
    // either way.
    auto run_range = [&](std::size_t lo, std::size_t hi) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = lo; i < hi; ++i) {
        telemetry::ScopeGuard guard(&metrics);
        out[i] = space.run(refs[i]);
      }
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    if (executor == nullptr) return run_range(0, refs.size());
    const auto chunks = contiguous_chunks(
        refs.size(), static_cast<std::size_t>(executor->workers()) * 4);
    std::vector<double> chunk_seconds(chunks.size(), 0.0);
    std::vector<Executor::Task> tasks;
    tasks.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      tasks.push_back([&, c] {
        chunk_seconds[c] = run_range(chunks[c].first, chunks[c].second);
      });
    }
    executor->run(std::move(tasks));
    // Serial-equivalent injection time: execution spans summed across
    // workers, in chunk order so the sum itself is reproducible.
    double total = 0.0;
    for (double s : chunk_seconds) total += s;
    return total;
  });

  // Workers have quiesced (executor->run returned / inline loop ended):
  // the merge is exact. The scope's destructor then rolls these totals up
  // into the study scope, if any.
  result.metrics = metrics.snapshot();
  return result;
}

}  // namespace resilience::harness
