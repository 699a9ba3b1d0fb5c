// The deterministic trial machinery of one deployment, factored out of
// CampaignRunner so in-process and multi-process (src/shard) execution
// share one implementation.
//
// Two pieces:
//
//   * TrialSpace — plan drawing + single-trial execution. A trial is
//     identified by a TrialRef, and its randomness is a pure function of
//     (config.seed, ref): uniform trials draw from
//     derive_seed(seed, index), stratified trials from
//     derive_seed(seed, stratum-grid-id, index). That makes trial
//     identity placement-independent: any process that holds the same
//     (app, config, golden) executes the same ref to the same outcome.
//
//   * AdaptiveDriver — the adaptive engine's control side (DESIGN.md
//     §12): per-batch Neyman allocation over the strata, CI envelope,
//     and the stop rule, all evaluated on tallies folded in deterministic
//     (stratum, index) order. The driver never runs trials itself, which
//     is what lets a shard coordinator run the policy while worker
//     processes run the refs.
//
// run_campaign_loop composes both into the one campaign loop that
// in-process (CampaignRunner::run) and sharded (shard::run_sharded_campaign)
// campaigns share: validation, batch iteration, the ref-order merge into
// the contamination histograms, and the adaptive record. A caller supplies
// only how a batch of refs executes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "util/rng.hpp"

namespace resilience::harness {

/// Stratum id marking a uniform (unstratified) draw.
inline constexpr std::uint64_t kNoStratum = ~std::uint64_t{0};

/// Identity of one trial, independent of where it executes.
struct TrialRef {
  /// fsefi::stratum_index grid id, or kNoStratum for the uniform stream.
  std::uint64_t stratum = kNoStratum;
  /// Index within the stratum's substream (or the global trial index for
  /// uniform draws) — the seed-determining half of the identity.
  std::uint64_t index = 0;
  /// Global executed-order label; trace diagnostics only.
  std::uint64_t tag = 0;
};

/// What one executed trial produced.
struct TrialResult {
  Outcome outcome = Outcome::Failure;
  /// Ranks contaminated, -1 when unknown (torn-down job).
  int contaminated = -1;
};

/// Plan drawing and execution for one (app, config, golden) deployment.
/// Stateless after construction; run() is safe to call concurrently from
/// executor workers (each call pushes no scope of its own — counts land
/// in the caller's innermost metric scope).
class TrialSpace {
 public:
  /// One stratum of the (region x kind x decile) grid with a non-zero
  /// population, in grid order. The driver allocates over these.
  struct StratumInfo {
    fsefi::Stratum stratum;
    std::uint64_t id = 0;  ///< grid index: RNG substream + ordering key
    std::vector<std::uint64_t> rank_pop;  ///< per-rank decile population
    std::uint64_t population = 0;
    double weight = 0.0;  ///< population / total_ops (the W_s of §12)
  };

  /// Holds references to `app` and `golden`: both must outlive the space.
  /// Throws std::invalid_argument for unsupported scenario combinations
  /// (fail-stop outside the register domain or off the fixed arrival,
  /// Poisson resident-state, UniformRank outside the register domain) and
  /// std::runtime_error when the scenario's sample space is empty — no
  /// operations match the kind/region filters, no Real elements are
  /// delivered (payload), or the golden run recorded no boundary state
  /// (resident state).
  TrialSpace(const apps::App& app, const DeploymentConfig& config,
             const GoldenRun& golden);

  /// Execute one trial. ref.stratum must be kNoStratum or the id of one
  /// of strata().
  [[nodiscard]] TrialResult run(const TrialRef& ref) const;

  /// Whether this deployment stratifies under its adaptive config: the
  /// engine is on, stratification is requested, the deployment is
  /// single-error UniformInstruction, and at least one stratum is
  /// populated.
  [[nodiscard]] bool stratified() const noexcept { return !strata_.empty(); }
  [[nodiscard]] const std::vector<StratumInfo>& strata() const noexcept {
    return strata_;
  }
  [[nodiscard]] std::uint64_t total_ops() const noexcept { return total_ops_; }
  [[nodiscard]] const GoldenRun& golden() const noexcept { return golden_; }

  /// Index into strata() of the stratum with grid id `id`; throws
  /// std::out_of_range for an id that is not one of strata().
  [[nodiscard]] std::size_t stratum_slot(std::uint64_t id) const;

 private:
  [[nodiscard]] TrialResult execute(
      std::uint64_t tag, std::vector<fsefi::InjectionPlan> plans) const;
  [[nodiscard]] TrialResult execute(std::uint64_t tag, int target,
                                    fsefi::InjectionPlan plan) const;
  /// PoissonTimeline trials: draw the arrival sequence over the global
  /// sample-space timeline and expand each arrival into its rank's plan.
  [[nodiscard]] TrialResult run_poisson(std::uint64_t tag,
                                        util::Xoshiro256& rng) const;

  const apps::App& app_;
  DeploymentConfig config_;
  const GoldenRun& golden_;
  /// Per-rank sample-space sizes of the scenario's domain: filtered
  /// dynamic ops (RegisterOperand), delivered Reals (MessagePayload), or
  /// live-state Real elements (ResidentState).
  std::vector<std::uint64_t> rank_ops_;
  std::uint64_t total_ops_ = 0;
  /// Recorded golden boundaries (ResidentState only; 0 otherwise).
  std::uint64_t state_boundaries_ = 0;
  RunOptions run_opts_;
  std::vector<StratumInfo> strata_;  ///< empty unless stratifying
  std::vector<std::size_t> stratum_by_id_;  ///< grid id -> strata_ index
};

/// The adaptive engine's allocation + stopping policy, separated from
/// trial execution. Usage:
///
///   AdaptiveDriver driver(config, space);
///   while (!(refs = driver.next_batch()).empty()) {
///     results = run them all (any processes, any order);
///     driver.fold(refs, results);   // in ref order
///   }
///   stats = driver.stats();
///
/// Deterministic in (config, golden): the ref sequence and the stopping
/// point depend only on the folded tallies, never on where or when the
/// trials ran.
class AdaptiveDriver {
 public:
  AdaptiveDriver(const DeploymentConfig& config, const TrialSpace& space);

  /// The next batch of refs in deterministic (stratum, index) order;
  /// empty once the campaign converged or reached its trial cap.
  [[nodiscard]] std::vector<TrialRef> next_batch();

  /// Fold a completed batch's results (same order as the refs issued) and
  /// evaluate the stop rule.
  void fold(const std::vector<TrialRef>& refs,
            const std::vector<TrialResult>& results);

  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

  /// Finalized record: stopping point, CI envelope, post-stratified
  /// propagation. Call after next_batch() returned empty.
  [[nodiscard]] AdaptiveStats stats() const;

 private:
  struct Tally {
    FaultInjectionResult tally;
    std::vector<std::size_t> hist;  ///< contamination counts
    std::size_t drawn = 0;          ///< trials assigned so far
  };

  [[nodiscard]] std::vector<std::size_t> allocate(std::size_t n);
  void compute_envelope(bool covered);
  [[nodiscard]] double target_half_width(double est) const;

  const DeploymentConfig& config_;
  const TrialSpace& space_;
  std::size_t cap_;
  std::size_t batch_size_;
  std::size_t min_trials_;
  bool use_strata_;
  std::vector<Tally> tallies_;  ///< parallel to space_.strata()
  FaultInjectionResult overall_;
  std::size_t executed_ = 0;
  bool stopped_ = false;
  StopReason stop_ = StopReason::TrialCap;
  std::array<OutcomeInterval, 3> envelope_{};
};

/// How a campaign's batches of refs execute: fills `out` (sized like
/// `refs`) with one result per ref, in ref order, and returns the batch's
/// serial-equivalent seconds.
using BatchRunner =
    std::function<double(const TrialSpace& space,
                         const std::vector<TrialRef>& refs,
                         std::vector<TrialResult>& out)>;

/// The campaign loop. `result` arrives holding its config and golden run.
/// Validates the deployment by building its TrialSpace (throwing before
/// `run_batch` is first called), then runs a fixed campaign as one batch
/// of uniform refs [0, trials) and an adaptive one as AdaptiveDriver's
/// batches. Every batch is merged into result's tallies in ref order —
/// fixed before the batch ran, so the tallies are bit-identical however
/// and wherever the refs executed. Adaptive campaigns also get their
/// AdaptiveStats record and its telemetry, counted in `metrics`. Taking
/// the metrics snapshot is left to the caller.
void run_campaign_loop(const apps::App& app, CampaignResult& result,
                       telemetry::MetricScope& metrics,
                       const BatchRunner& run_batch);

/// Split [0, n) into at most `max_chunks` contiguous [lo, hi) ranges of
/// ceil(n / chunks) elements each, in order (none when n == 0).
std::vector<std::pair<std::size_t, std::size_t>> contiguous_chunks(
    std::size_t n, std::size_t max_chunks);

}  // namespace resilience::harness
