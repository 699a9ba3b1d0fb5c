#include "harness/campaign_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace resilience::harness {

namespace {

/// Draw the bit positions of one fault of `pattern`, calling
/// emit(bit, width) once per flip. RankCrash emits nothing: the fault is
/// the rank's death, not a flip.
template <typename Emit>
void expand_bits(fsefi::FaultPattern pattern, util::Xoshiro256& rng,
                 Emit&& emit) {
  switch (pattern) {
    case fsefi::FaultPattern::SingleBit:
      emit(static_cast<std::uint8_t>(rng.uniform_below(64)), 1);
      break;
    case fsefi::FaultPattern::DoubleBit: {
      // Two distinct random bits of the same target.
      const auto bits = rng.sample_distinct(64, 2);
      for (auto bit : bits) emit(static_cast<std::uint8_t>(bit), 1);
      break;
    }
    case fsefi::FaultPattern::Burst4:
      emit(static_cast<std::uint8_t>(rng.uniform_below(61)), 4);
      break;
    case fsefi::FaultPattern::Byte:
      emit(static_cast<std::uint8_t>(8 * rng.uniform_below(8)), 8);
      break;
    case fsefi::FaultPattern::RankCrash:
      break;
  }
}

/// Append the injection points of one drawn dynamic-op index, expanding
/// the scenario's fault pattern. The draw order — operand first, then the
/// bit positions — is the pre-scenario order, so legacy campaigns replay
/// bit-identically. RankCrash marks the death op without consuming any
/// draws.
void expand_register(const fsefi::FaultScenario& sc, std::uint64_t idx,
                     util::Xoshiro256& rng, fsefi::InjectionPlan& plan) {
  if (sc.pattern == fsefi::FaultPattern::RankCrash) {
    plan.points.push_back({idx, 0, 0, 0});
    return;
  }
  const auto operand = static_cast<std::uint8_t>(rng.uniform_below(2));
  expand_bits(sc.pattern, rng, [&](std::uint8_t bit, std::uint8_t width) {
    plan.points.push_back({idx, operand, bit, width});
  });
}

/// Append payload faults at one delivered-Real index (no operand: the
/// flip lands on the element as delivered).
void expand_payload(const fsefi::FaultScenario& sc, std::uint64_t idx,
                    util::Xoshiro256& rng, fsefi::InjectionPlan& plan) {
  expand_bits(sc.pattern, rng, [&](std::uint8_t bit, std::uint8_t width) {
    plan.payload_points.push_back({idx, 0, bit, width});
  });
}

/// Append resident-state faults on one (boundary, element) cell.
void expand_state(const fsefi::FaultScenario& sc, std::int32_t boundary,
                  std::uint64_t element, util::Xoshiro256& rng,
                  fsefi::InjectionPlan& plan) {
  expand_bits(sc.pattern, rng, [&](std::uint8_t bit, std::uint8_t width) {
    plan.state_faults.push_back({boundary, element, bit, width});
  });
}

/// Count of one outcome in a tally, by outcome ordinal (0 = Success,
/// 1 = SDC, 2 = Failure) — the iteration order the adaptive stop rule
/// uses.
std::size_t outcome_count(const FaultInjectionResult& tally,
                          int ordinal) noexcept {
  switch (ordinal) {
    case 0:
      return tally.success;
    case 1:
      return tally.sdc;
    default:
      return tally.failure;
  }
}

}  // namespace

TrialSpace::TrialSpace(const apps::App& app, const DeploymentConfig& config,
                       const GoldenRun& golden)
    : app_(app), config_(config), golden_(golden) {
  if (config_.errors_per_test < 1) {
    throw std::invalid_argument("errors_per_test must be >= 1");
  }
  const fsefi::FaultScenario& sc = config_.scenario;
  if (sc.crash()) {
    if (sc.domain != fsefi::FaultDomain::RegisterOperand) {
      throw std::invalid_argument(
          "rank-crash faults are register-domain: the rank dies at a drawn "
          "dynamic op");
    }
    if (sc.arrival != fsefi::ArrivalModel::FixedOpIndex) {
      throw std::invalid_argument(
          "rank-crash scenarios use FixedOpIndex arrival (only the first "
          "fault of a timeline could ever fire)");
    }
  }
  if (sc.domain == fsefi::FaultDomain::ResidentState &&
      sc.arrival == fsefi::ArrivalModel::PoissonTimeline) {
    throw std::invalid_argument(
        "resident-state faults strike at iteration boundaries, not on an "
        "op timeline: use FixedOpIndex arrival");
  }
  if (sc.domain != fsefi::FaultDomain::RegisterOperand &&
      config_.selection == TargetSelection::UniformRank) {
    throw std::invalid_argument(
        "UniformRank selection is defined on the register domain only");
  }
  if (sc.arrival == fsefi::ArrivalModel::PoissonTimeline &&
      !(sc.mtbf_factor > 0.0)) {
    throw std::invalid_argument("mtbf_factor must be > 0");
  }

  // The per-rank sample-space sizes of the scenario's domain; every
  // drawing path weights its rank pick by these.
  switch (sc.domain) {
    case fsefi::FaultDomain::RegisterOperand:
      rank_ops_.reserve(golden_.profiles.size());
      for (const auto& prof : golden_.profiles) {
        rank_ops_.push_back(prof.matching(sc.kinds, sc.regions));
        total_ops_ += rank_ops_.back();
      }
      if (total_ops_ == 0) {
        throw std::runtime_error(
            app_.label() +
            ": no dynamic operations match the deployment's "
            "kind/region filters");
      }
      break;
    case fsefi::FaultDomain::MessagePayload:
      if (golden_.recv_reals.size() != golden_.profiles.size()) {
        throw std::runtime_error(
            app_.label() +
            ": golden run carries no delivered-Real counts (re-profile to "
            "run message-payload scenarios)");
      }
      rank_ops_ = golden_.recv_reals;
      for (const std::uint64_t n : rank_ops_) total_ops_ += n;
      if (total_ops_ == 0) {
        throw std::runtime_error(
            app_.label() + ": no Real elements are delivered by receives");
      }
      break;
    case fsefi::FaultDomain::ResidentState: {
      if (golden_.checkpoints == nullptr ||
          golden_.checkpoints->boundaries.empty() ||
          golden_.checkpoints->state_reals.size() !=
              golden_.profiles.size()) {
        throw std::runtime_error(
            app_.label() +
            ": golden run recorded no boundary state (resident-state "
            "scenarios need a checkpoint-capturing golden pre-pass)");
      }
      state_boundaries_ = golden_.checkpoints->boundaries.size();
      rank_ops_ = golden_.checkpoints->state_reals;
      for (const std::uint64_t n : rank_ops_) total_ops_ += n;
      if (total_ops_ == 0) {
        throw std::runtime_error(app_.label() +
                                 ": live-state views hold no Real elements");
      }
      break;
    }
  }

  run_opts_.op_budget = static_cast<std::uint64_t>(
                            config_.hang_budget_factor *
                            static_cast<double>(golden_.max_rank_ops)) +
                        config_.hang_budget_slack;
  // Trial fast-forward (DESIGN.md §9): hand every trial the boundary
  // checkpoints the golden pre-pass captured. Null when the kill switch
  // was off at capture time.
  if (checkpoint_enabled() && golden_.checkpoints != nullptr) {
    run_opts_.checkpoints = golden_.checkpoints.get();
  }

  // Stratification needs single-error register-domain fixed-arrival
  // UniformInstruction deployments: decile ranges are defined on single
  // filtered-op indices, multi-error distinct draws do not decompose into
  // independent strata, and the other domains/arrivals sample different
  // spaces entirely.
  const AdaptiveConfig& ad = config_.adaptive;
  const bool want_strata =
      ad.enabled && ad.stratify && config_.errors_per_test == 1 &&
      config_.selection == TargetSelection::UniformInstruction &&
      sc.domain == fsefi::FaultDomain::RegisterOperand &&
      sc.arrival == fsefi::ArrivalModel::FixedOpIndex && !sc.crash() &&
      ad.deciles >= 1;
  if (!want_strata) return;
  for (int r = 0; r < fsefi::kNumRegions; ++r) {
    if (!fsefi::contains(sc.regions, static_cast<fsefi::Region>(r)))
      continue;
    for (int k = 0; k < fsefi::kNumOpKinds; ++k) {
      if (!fsefi::contains(sc.kinds, static_cast<fsefi::OpKind>(k)))
        continue;
      for (int d = 0; d < ad.deciles; ++d) {
        StratumInfo s;
        s.stratum = {static_cast<fsefi::Region>(r),
                     static_cast<fsefi::OpKind>(k), d, ad.deciles};
        s.id = fsefi::stratum_index(s.stratum);
        s.rank_pop.reserve(golden_.profiles.size());
        for (const auto& prof : golden_.profiles) {
          const std::uint64_t pop = fsefi::stratum_population(prof, s.stratum);
          s.rank_pop.push_back(pop);
          s.population += pop;
        }
        if (s.population == 0) continue;  // nothing to hit: drop
        s.weight = static_cast<double>(s.population) /
                   static_cast<double>(total_ops_);
        strata_.push_back(std::move(s));
      }
    }
  }
  // Grid ids are small (region x kind x decile), so a dense table maps
  // a ref's stratum id back to its slot.
  std::uint64_t max_id = 0;
  for (const auto& s : strata_) max_id = std::max(max_id, s.id);
  stratum_by_id_.assign(static_cast<std::size_t>(max_id) + 1,
                        ~std::size_t{0});
  for (std::size_t i = 0; i < strata_.size(); ++i) {
    stratum_by_id_[static_cast<std::size_t>(strata_[i].id)] = i;
  }
}

std::size_t TrialSpace::stratum_slot(std::uint64_t id) const {
  if (id >= stratum_by_id_.size() ||
      stratum_by_id_[static_cast<std::size_t>(id)] == ~std::size_t{0}) {
    throw std::out_of_range("no populated stratum with grid id " +
                            std::to_string(id));
  }
  return stratum_by_id_[static_cast<std::size_t>(id)];
}

TrialResult TrialSpace::run(const TrialRef& ref) const {
  const fsefi::FaultScenario& sc = config_.scenario;
  if (ref.stratum == kNoStratum) {
    // Uniform drawing, seeded from the global trial index — the
    // fixed-mode stream (and the adaptive engine's fallback when it
    // cannot stratify).
    util::Xoshiro256 rng(util::derive_seed(config_.seed, ref.index));
    if (sc.arrival == fsefi::ArrivalModel::PoissonTimeline) {
      return run_poisson(ref.tag, rng);
    }
    // Fixed arrival: draw a target rank (weighted by its share of the
    // domain's sample space) plus `errors_per_test` distinct indices in
    // that rank's stream.
    int target = 0;
    if (config_.selection == TargetSelection::UniformInstruction) {
      std::uint64_t pick = rng.uniform_below(total_ops_);
      for (int r = 0; r < config_.nranks; ++r) {
        const std::uint64_t ops = rank_ops_[static_cast<std::size_t>(r)];
        if (pick < ops) {
          target = r;
          break;
        }
        pick -= ops;
      }
    } else {
      // Uniform over ranks with a non-empty sample space.
      std::vector<int> eligible;
      for (int r = 0; r < config_.nranks; ++r) {
        if (rank_ops_[static_cast<std::size_t>(r)] >=
            static_cast<std::uint64_t>(config_.errors_per_test)) {
          eligible.push_back(r);
        }
      }
      if (eligible.empty()) {
        throw std::runtime_error("no rank has enough eligible operations");
      }
      target = eligible[rng.uniform_below(eligible.size())];
    }

    const std::uint64_t ops = rank_ops_[static_cast<std::size_t>(target)];
    const auto x = static_cast<std::uint64_t>(config_.errors_per_test);

    fsefi::InjectionPlan plan;
    plan.kinds = sc.kinds;
    plan.regions = sc.regions;
    plan.crash = sc.crash();

    if (sc.domain == fsefi::FaultDomain::ResidentState) {
      // The rank's cells are the (boundary, element) product; distinct
      // draws sorted ascending come out boundary-major, which is the
      // sort order state_faults require.
      const std::uint64_t cells = state_boundaries_ * ops;
      if (cells < x) {
        throw std::runtime_error(
            "target rank has fewer state cells than errors");
      }
      std::vector<std::uint64_t> draws = rng.sample_distinct(cells, x);
      std::sort(draws.begin(), draws.end());
      for (std::uint64_t c : draws) {
        const auto& rec =
            golden_.checkpoints->boundaries[static_cast<std::size_t>(c / ops)];
        expand_state(sc, rec.iter, c % ops, rng, plan);
      }
      return execute(ref.tag, target, std::move(plan));
    }

    if (ops < x) {
      throw std::runtime_error(
          "target rank has fewer eligible ops than errors");
    }
    std::vector<std::uint64_t> indices = rng.sample_distinct(ops, x);
    std::sort(indices.begin(), indices.end());
    for (std::uint64_t idx : indices) {
      if (sc.domain == fsefi::FaultDomain::MessagePayload) {
        expand_payload(sc, idx, rng, plan);
      } else {
        expand_register(sc, idx, rng, plan);
      }
    }
    return execute(ref.tag, target, std::move(plan));
  }

  // A stratified trial: rank weighted by its share of the stratum, then a
  // uniform op index inside that rank's decile range of the (region,
  // kind) cell stream. The plan narrows its filters to the single cell,
  // so op_index counts within the cell's own dynamic stream. Seeded from
  // (stratum grid id, index-within-stratum): independent of batch
  // boundaries and allocation history.
  const StratumInfo& s = strata_[stratum_slot(ref.stratum)];
  util::Xoshiro256 rng(util::derive_seed(config_.seed, s.id, ref.index));
  std::uint64_t pick = rng.uniform_below(s.population);
  int target = 0;
  for (int r = 0; r < config_.nranks; ++r) {
    const std::uint64_t pop = s.rank_pop[static_cast<std::size_t>(r)];
    if (pick < pop) {
      target = r;
      break;
    }
    pick -= pop;
  }
  const auto& prof = golden_.profiles[static_cast<std::size_t>(target)];
  const std::uint64_t cell = prof.counts[static_cast<int>(s.stratum.region)]
                                        [static_cast<int>(s.stratum.kind)];
  const auto [lo, hi] =
      fsefi::decile_range(cell, s.stratum.decile, s.stratum.ndeciles);
  fsefi::InjectionPlan plan;
  plan.kinds = s.stratum.kinds();
  plan.regions = s.stratum.regions();
  expand_register(sc, lo + rng.uniform_below(hi - lo), rng, plan);
  return execute(ref.tag, target, std::move(plan));
}

TrialResult TrialSpace::run_poisson(std::uint64_t tag,
                                    util::Xoshiro256& rng) const {
  const fsefi::FaultScenario& sc = config_.scenario;
  // The trial's timeline is the concatenated per-rank sample-space
  // streams: T "ticks", one per eligible op (register) or delivered Real
  // (payload). MTBF is a fraction of the trial length, so the expected
  // fault count is scale-free.
  const double horizon = static_cast<double>(total_ops_);
  const double mtbf = sc.mtbf_factor * horizon;
  std::vector<std::uint64_t> arrivals;
  // First arrival from the exponential truncated to (0, horizon):
  // conditioning the trial on >= 1 fault. log1p keeps precision when
  // horizon/mtbf is small and the truncation mass is tiny.
  const double mass = -std::expm1(-horizon / mtbf);
  double t = -mtbf * std::log1p(-rng.uniform01() * mass);
  for (;;) {
    const auto tick = static_cast<std::uint64_t>(t);
    arrivals.push_back(tick < total_ops_ ? tick : total_ops_ - 1);
    t += -mtbf * std::log1p(-rng.uniform01());
    if (!(t < horizon)) break;
  }

  std::vector<fsefi::InjectionPlan> plans(
      static_cast<std::size_t>(config_.nranks));
  for (fsefi::InjectionPlan& plan : plans) {
    plan.kinds = sc.kinds;
    plan.regions = sc.regions;
  }
  for (const std::uint64_t global : arrivals) {
    telemetry::trace_instant("scenario", "timeline_arrival", "op", global);
    std::uint64_t local = global;
    int rank = 0;
    for (int r = 0; r < config_.nranks; ++r) {
      const std::uint64_t ops = rank_ops_[static_cast<std::size_t>(r)];
      if (local < ops) {
        rank = r;
        break;
      }
      local -= ops;
    }
    fsefi::InjectionPlan& plan = plans[static_cast<std::size_t>(rank)];
    if (sc.domain == fsefi::FaultDomain::MessagePayload) {
      expand_payload(sc, local, rng, plan);
    } else {
      expand_register(sc, local, rng, plan);
    }
  }
  return execute(tag, std::move(plans));
}

TrialResult TrialSpace::execute(std::uint64_t tag, int target,
                                fsefi::InjectionPlan plan) const {
  std::vector<fsefi::InjectionPlan> plans(
      static_cast<std::size_t>(config_.nranks));
  plans[static_cast<std::size_t>(target)] = std::move(plan);
  return execute(tag, std::move(plans));
}

TrialResult TrialSpace::execute(
    std::uint64_t tag, std::vector<fsefi::InjectionPlan> plans) const {
  telemetry::TraceSpan trial_span("harness", "trial", "index", tag);
  const RunOutput out = run_app_once(app_, config_.nranks, plans, run_opts_);
  telemetry::count(telemetry::Counter::HarnessTrials);
  if (out.checkpoint_restored) {
    telemetry::count(telemetry::Counter::HarnessCheckpointRestores);
    telemetry::trace_instant("harness", "checkpoint_restore", "iteration",
                             static_cast<std::uint64_t>(out.resume_iteration));
  }
  if (out.early_exit) {
    telemetry::count(telemetry::Counter::HarnessEarlyExits);
    telemetry::trace_instant("harness", "early_exit");
  }
  if (out.hang) {
    telemetry::count(telemetry::Counter::HarnessHangAborts);
  } else if (out.runtime.deadlocked) {
    telemetry::count(telemetry::Counter::HarnessDeadlockAborts);
    telemetry::trace_instant("harness", "deadlock_abort");
  }
  const int contaminated = out.contaminated_ranks();
  if (contaminated >= 0) {
    telemetry::record(telemetry::Histogram::HarnessContaminatedRanks,
                      static_cast<std::uint64_t>(contaminated));
  }
  if (out.runtime.ok) {
    // Only clean completions: the op totals of a torn-down job depend on
    // where the surviving ranks happened to stop, and histograms take
    // part in the logical-determinism contract.
    std::uint64_t trial_ops = 0;
    for (const auto& prof : out.profiles) trial_ops += prof.total();
    telemetry::record(telemetry::Histogram::HarnessTrialOps, trial_ops);
  }
  return {CampaignRunner::classify(out, golden_.signature,
                                   app_.checker_tolerance()),
          contaminated};
}

AdaptiveDriver::AdaptiveDriver(const DeploymentConfig& config,
                               const TrialSpace& space)
    : config_(config),
      space_(space),
      cap_(config.trials),
      batch_size_(std::max<std::size_t>(1, config.adaptive.batch)),
      min_trials_(
          std::min(std::max<std::size_t>(1, config.adaptive.min_trials), cap_)),
      use_strata_(space.stratified()) {
  tallies_.resize(space_.strata().size());
  for (Tally& t : tallies_) {
    t.hist.assign(static_cast<std::size_t>(config_.nranks) + 1, 0);
  }
}

std::vector<TrialRef> AdaptiveDriver::next_batch() {
  if (stopped_ || executed_ >= cap_) return {};
  const std::size_t n = std::min(batch_size_, cap_ - executed_);
  std::vector<TrialRef> refs;
  refs.reserve(n);
  if (use_strata_) {
    const auto& strata = space_.strata();
    const auto alloc = allocate(n);
    for (std::size_t i = 0; i < strata.size(); ++i) {
      for (std::size_t a = 0; a < alloc[i]; ++a) {
        refs.push_back({strata[i].id, tallies_[i].drawn + a, 0});
      }
      tallies_[i].drawn += alloc[i];
    }
  } else {
    for (std::size_t t = 0; t < n; ++t) {
      refs.push_back({kNoStratum, executed_ + t, 0});
    }
  }
  for (std::size_t p = 0; p < refs.size(); ++p) refs[p].tag = executed_ + p;
  return refs;
}

void AdaptiveDriver::fold(const std::vector<TrialRef>& refs,
                          const std::vector<TrialResult>& results) {
  // Merge in (stratum, index) order — fixed before the batch ran.
  for (std::size_t i = 0; i < refs.size(); ++i) {
    overall_.add(results[i].outcome);
    if (use_strata_) {
      Tally& t = tallies_[space_.stratum_slot(refs[i].stratum)];
      t.tally.add(results[i].outcome);
      const int c = results[i].contaminated;
      if (c >= 0 && c < static_cast<int>(t.hist.size())) {
        t.hist[static_cast<std::size_t>(c)] += 1;
      }
    }
  }
  executed_ += refs.size();

  bool covered = true;
  if (use_strata_) {
    for (const Tally& t : tallies_) covered = covered && t.tally.trials > 0;
  }
  compute_envelope(covered);
  if (executed_ >= min_trials_ && covered) {
    bool converged = true;
    for (const auto& iv : envelope_) {
      converged = converged && iv.half_width() <= target_half_width(iv.rate);
    }
    if (converged) {
      stop_ = StopReason::Converged;
      stopped_ = true;
    }
  }
}

// Per-batch allocation: one trial to every still-unsampled stratum
// first (largest population first — the stop rule cannot fire until
// every live stratum has data), then largest-remainder apportionment of
// the rest by W_s * sqrt(v_s) — proportional on the first batch (all
// v_s equal) and Neyman-refined once per-stratum variance is observed.
std::vector<std::size_t> AdaptiveDriver::allocate(std::size_t n) {
  const auto& strata = space_.strata();
  std::vector<std::size_t> alloc(strata.size(), 0);
  std::vector<std::size_t> order(strata.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (strata[a].population != strata[b].population)
      return strata[a].population > strata[b].population;
    return strata[a].id < strata[b].id;
  });
  for (std::size_t i : order) {
    if (n == 0) break;
    if (tallies_[i].drawn + alloc[i] == 0) {
      alloc[i] += 1;
      --n;
    }
  }
  if (n == 0) return alloc;
  std::vector<double> w(strata.size(), 0.0);
  double wsum = 0.0;
  for (std::size_t i = 0; i < strata.size(); ++i) {
    const Tally& t = tallies_[i];
    // Multinomial spread sum_o p_o(1 - p_o), shrunk toward the center
    // ((k+2)/(n+4)) so a handful of same-outcome trials cannot zero a
    // stratum out of the allocation; 2/3 (the maximal spread) until a
    // stratum has enough data to say otherwise.
    double v = 2.0 / 3.0;
    if (t.tally.trials >= 8) {
      v = 0.0;
      const double ns = static_cast<double>(t.tally.trials);
      for (int o = 0; o < 3; ++o) {
        const double pv =
            (static_cast<double>(outcome_count(t.tally, o)) + 2.0) / (ns + 4.0);
        v += pv * (1.0 - pv);
      }
      v = std::max(v, 1e-4);  // converged strata keep a trickle share
    }
    w[i] = strata[i].weight * std::sqrt(v);
    wsum += w[i];
  }
  std::vector<std::pair<double, std::size_t>> frac;
  frac.reserve(strata.size());
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < strata.size(); ++i) {
    const double quota = static_cast<double>(n) * w[i] / wsum;
    const auto base = static_cast<std::size_t>(quota);
    alloc[i] += base;
    assigned += base;
    frac.emplace_back(quota - static_cast<double>(base), i);
  }
  std::sort(frac.begin(), frac.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return strata[a.second].id < strata[b.second].id;
  });
  for (std::size_t r = 0; assigned < n; ++r) {
    alloc[frac[r % frac.size()].second] += 1;
    ++assigned;
  }
  return alloc;
}

// Rate estimate + CI per outcome on the current tallies. Post-
// stratified when strata are in play and all are covered; exact
// Clopper–Pearson bounds (widened to contain the post-stratified
// point) on the rare tail, where the normal approximations under-cover.
void AdaptiveDriver::compute_envelope(bool covered) {
  const AdaptiveConfig& ad = config_.adaptive;
  const auto& strata = space_.strata();
  const std::size_t n_total = overall_.trials;
  for (int o = 0; o < 3; ++o) {
    const std::size_t k = outcome_count(overall_, o);
    double est = n_total == 0
                     ? 0.0
                     : static_cast<double>(k) / static_cast<double>(n_total);
    double strat_var = 0.0;
    if (use_strata_ && covered) {
      est = 0.0;
      for (std::size_t i = 0; i < strata.size(); ++i) {
        const double ns = static_cast<double>(tallies_[i].tally.trials);
        const double ks =
            static_cast<double>(outcome_count(tallies_[i].tally, o));
        // Shrunk rate in the variance term only: guards the
        // zero-variance trap of small all-same-outcome samples.
        const double pv = (ks + 2.0) / (ns + 4.0);
        est += strata[i].weight * (ks / ns);
        strat_var += strata[i].weight * strata[i].weight * pv * (1.0 - pv) / ns;
      }
    }
    const double pooled =
        n_total == 0 ? 0.0
                     : static_cast<double>(k) / static_cast<double>(n_total);
    const std::size_t complement = n_total - k;
    const bool rare = pooled < ad.rare_threshold ||
                      1.0 - pooled < ad.rare_threshold ||
                      std::min(k, complement) < 8;
    OutcomeInterval iv;
    iv.rate = est;
    if (rare) {
      const auto cp =
          util::clopper_pearson_interval(k, n_total, ad.confidence_z);
      iv.lo = std::min(cp.lo, est);
      iv.hi = std::max(cp.hi, est);
      iv.exact = true;
    } else if (use_strata_ && covered) {
      const double half = ad.confidence_z * std::sqrt(strat_var);
      iv.lo = std::max(0.0, est - half);
      iv.hi = std::min(1.0, est + half);
    } else {
      const auto wi = util::wilson_interval(k, n_total, ad.confidence_z);
      iv.lo = wi.lo;
      iv.hi = wi.hi;
    }
    envelope_[static_cast<std::size_t>(o)] = iv;
  }
}

double AdaptiveDriver::target_half_width(double est) const {
  const AdaptiveConfig& ad = config_.adaptive;
  if (ad.ci_relative > 0.0)
    return ad.ci_relative * std::max(est, ad.rare_threshold);
  return ad.ci_half_width;
}

AdaptiveStats AdaptiveDriver::stats() const {
  AdaptiveStats stats;
  stats.trials_requested = cap_;
  stats.trials_executed = executed_;
  stats.stop_reason = stop_;
  stats.stratified = use_strata_;
  stats.strata = use_strata_ ? space_.strata().size() : 1;
  stats.success = envelope_[0];
  stats.sdc = envelope_[1];
  stats.failure = envelope_[2];
  if (use_strata_) {
    // Post-stratified r_x: each stratum's contamination distribution
    // weighted by its population share, renormalized over the trials
    // whose contamination is known (mirrors the raw-histogram rule).
    const auto& strata = space_.strata();
    std::vector<double> q(static_cast<std::size_t>(config_.nranks), 0.0);
    double mass = 0.0;
    for (std::size_t i = 0; i < strata.size(); ++i) {
      const Tally& t = tallies_[i];
      if (t.tally.trials == 0) continue;
      const double ns = static_cast<double>(t.tally.trials);
      for (std::size_t x = 1; x < t.hist.size(); ++x) {
        const double share =
            strata[i].weight * static_cast<double>(t.hist[x]) / ns;
        q[x - 1] += share;
        mass += share;
      }
    }
    if (mass > 0.0) {
      for (double& v : q) v /= mass;
      stats.propagation = std::move(q);
    }
  }
  return stats;
}

void run_campaign_loop(const apps::App& app, CampaignResult& result,
                       telemetry::MetricScope& metrics,
                       const BatchRunner& run_batch) {
  const DeploymentConfig& cfg = result.config;
  const TrialSpace space(app, cfg, result.golden);

  const std::size_t bins = static_cast<std::size_t>(cfg.nranks) + 1;
  result.contamination_hist.assign(bins, 0);
  result.by_contamination.assign(bins, FaultInjectionResult{});

  // Execute one batch and fold it into the campaign tallies in ref order.
  auto run = [&](const std::vector<TrialRef>& refs) {
    std::vector<TrialResult> out(refs.size());
    result.wall_seconds += run_batch(space, refs, out);
    for (const TrialResult& t : out) {
      result.overall.add(t.outcome);
      if (t.contaminated >= 0 && t.contaminated < static_cast<int>(bins)) {
        result.contamination_hist[static_cast<std::size_t>(t.contaminated)] +=
            1;
        result.by_contamination[static_cast<std::size_t>(t.contaminated)].add(
            t.outcome);
      }
    }
    return out;
  };

  if (!cfg.adaptive.enabled) {
    std::vector<TrialRef> refs(cfg.trials);
    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
      refs[trial] = {kNoStratum, trial, trial};
    }
    run(refs);
    return;
  }

  // ---- adaptive engine (DESIGN.md §12) ------------------------------------
  // CI-driven early stopping over (optionally) stratified sampling. The
  // driver issues refs and evaluates the stop rule only at batch
  // boundaries on tallies folded in deterministic (stratum, index) order,
  // so for a given seed the stopping point — and therefore every
  // classified outcome — is reproducible across worker and shard counts.
  AdaptiveDriver driver(cfg, space);
  std::vector<TrialRef> refs;
  while (!(refs = driver.next_batch()).empty()) driver.fold(refs, run(refs));

  const AdaptiveStats stats = driver.stats();
  result.adaptive = stats;
  telemetry::ScopeGuard guard(&metrics);
  telemetry::count(telemetry::Counter::CampaignTrialsSaved,
                   static_cast<std::uint64_t>(stats.trials_requested -
                                              stats.trials_executed));
  telemetry::count(telemetry::Counter::CampaignStrata,
                   static_cast<std::uint64_t>(stats.strata));
  telemetry::trace_instant("harness",
                           stats.stop_reason == StopReason::Converged
                               ? "adaptive_stop_converged"
                               : "adaptive_stop_trial_cap",
                           "executed",
                           static_cast<std::uint64_t>(stats.trials_executed));
}

std::vector<std::pair<std::size_t, std::size_t>> contiguous_chunks(
    std::size_t n, std::size_t max_chunks) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (n == 0) return chunks;
  const std::size_t count = std::min(n, std::max<std::size_t>(max_chunks, 1));
  const std::size_t chunk = (n + count - 1) / count;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    chunks.emplace_back(lo, std::min(lo + chunk, n));
  }
  return chunks;
}

}  // namespace resilience::harness
