// End-to-end modeling studies: run the full pipeline of the paper for one
// benchmark — serial sweeps, small-scale campaign, optional unique-region
// campaign, prediction, and (optionally) a measured large-scale campaign
// to validate against. This is the code path behind Figures 5-8.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "harness/campaign.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::core {

struct StudyConfig {
  int small_p = 4;    ///< S: small-scale size and serial sample count
  int large_p = 64;   ///< p: scale to predict
  std::size_t trials = 400;
  std::uint64_t seed = 20180813;
  /// Run the measured large-scale campaign for validation (Figures 5-7
  /// need it; pure prediction does not).
  bool measure_large = true;
  /// Model the parallel-unique term when the large-scale unique fraction
  /// exceeds this (the paper invokes it for FT only).
  double unique_fraction_threshold = 0.02;
  PredictorOptions predictor;
  /// Worker count of the campaign executor shared by all study phases
  /// (0 = auto, 1 = fully serial). Execution policy only: study results
  /// are bit-identical for every value.
  int max_workers = 0;
  /// Adaptive campaign engine applied to every deployment of the study
  /// (DESIGN.md §12). Off by default: all campaigns run their full fixed
  /// trial counts, bit-identical to a config without this member.
  harness::AdaptiveConfig adaptive;
};

struct StudyResult {
  StudyConfig config;
  SerialSweep sweep;
  SmallScaleObservation small;
  Prediction prediction;
  /// prob2 measured from the large-scale fault-free profile (the paper
  /// assumes the common/unique execution-time split of the large scale is
  /// known; one fault-free run supplies it).
  double prob_unique = 0.0;
  std::optional<harness::FaultInjectionResult> measured_large;
  std::optional<std::vector<double>> measured_propagation;  ///< large r_x

  /// One record per deployment the adaptive engine ran: which study
  /// phase, the requested-vs-executed trial counts, stop reason, and CI
  /// envelope. Empty when config.adaptive.enabled is false. Ordered by
  /// phase (serial sweeps in sample order, then small, large, unique) —
  /// deterministic regardless of phase overlap.
  struct AdaptivePhase {
    std::string phase;
    harness::AdaptiveStats stats;
  };
  std::vector<AdaptivePhase> adaptive_phases;
  /// Adaptive record of the measured large-scale campaign — the CI
  /// envelope the accuracy gate compares the Eq. 4/8 prediction against.
  std::optional<harness::AdaptiveStats> measured_adaptive;

  /// Serial-equivalent cost of the fault-injection phases (paper Figure
  /// 8's cost axis); summed across workers when phases ran in parallel.
  double serial_injection_seconds = 0.0;
  double small_injection_seconds = 0.0;
  double large_injection_seconds = 0.0;

  /// Execution-diagnostic counters and histograms of everything the
  /// study ran, rolled up from every campaign's metric scope (DESIGN.md
  /// §10). Cost/diagnostic detail only — not part of the modeled results
  /// and excluded from serialization.
  telemetry::MetricsSnapshot metrics;

  [[nodiscard]] double predicted_success() const noexcept {
    return prediction.combined.success;
  }
  [[nodiscard]] double measured_success() const noexcept {
    return measured_large ? measured_large->success_rate() : 0.0;
  }
  /// |measured - predicted| success rate, in rate units.
  [[nodiscard]] double success_error() const noexcept {
    return measured_large
               ? (measured_success() > predicted_success()
                      ? measured_success() - predicted_success()
                      : predicted_success() - measured_success())
               : 0.0;
  }

  /// Accuracy gate (DESIGN.md §12): true when the measured large-scale
  /// campaign ran adaptively and the Eq. 4/8 prediction falls outside
  /// the measured success-rate CI envelope. Reporting paths must surface
  /// this flag next to the prediction — a gap larger than the envelope
  /// is never reported silently.
  [[nodiscard]] bool accuracy_gate_flagged() const noexcept {
    return measured_adaptive.has_value() &&
           !measured_adaptive->success.contains(predicted_success());
  }
};

/// Run the full study for one app. Deterministic in (app, config).
/// Throws when the app does not support the requested scales or the
/// scales are incompatible (small_p must divide large_p).
StudyResult run_study(const apps::App& app, const StudyConfig& config);

}  // namespace resilience::core
