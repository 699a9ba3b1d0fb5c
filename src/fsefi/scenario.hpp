// FaultScenario — the unified fault-injection descriptor (DESIGN.md §16).
//
// The paper's Section 3 model needs exactly one scenario: a single bit
// flip in a floating-point register operand at a uniformly drawn dynamic
// operation index. Field studies of production systems (Cielo; FINJ's
// timeline-driven campaigns — see PAPERS.md) observe a wider failure
// surface: byte-granularity corruption, in-flight message corruption,
// resident-state corruption, multi-fault timelines, and outright rank
// crashes. A FaultScenario names one point in that space along three
// axes:
//
//   * domain  — what gets corrupted: a register operand mid-operation,
//     a message payload as it is delivered, or rank-local resident state
//     at an iteration boundary;
//   * pattern — the corruption shape: single bit, two independent bits,
//     a 4-bit burst, a whole byte, or rank death (fail-stop);
//   * arrival — when faults strike: one fixed dynamic-op index per trial
//     (the paper's model) or a Poisson timeline over the trial's filtered
//     op stream with an MTBF knob and >= 1 faults per trial.
//
// DeploymentConfig carries a FaultScenario; TrialSpace expands it into
// per-rank InjectionPlans with derive_seed substreams, so every campaign
// stays bit-identical across --jobs, collective fusion, checkpoint
// settings, and shard counts. The named catalog below is what the CLI's
// `--scenario` flag and `scenarios` subcommand expose.
#pragma once

#include <span>
#include <string_view>

#include "fsefi/plan.hpp"

namespace resilience::fsefi {

/// What a fault corrupts.
enum class FaultDomain : std::uint8_t {
  RegisterOperand = 0,  ///< an operand of one dynamic FP operation
  MessagePayload = 1,   ///< a Real element as a receive delivers it
  ResidentState = 2,    ///< a live-state Real at an iteration boundary
};

/// When faults strike within a trial.
enum class ArrivalModel : std::uint8_t {
  FixedOpIndex = 0,    ///< one uniformly drawn op index (the paper)
  PoissonTimeline = 1, ///< exponential inter-arrivals, >= 1 per trial
};

const char* to_string(FaultDomain domain) noexcept;
const char* to_string(ArrivalModel arrival) noexcept;

/// A complete injection scenario. The kind/region filters define the
/// eligible dynamic-op stream exactly as before; mtbf_factor only
/// matters under PoissonTimeline, where the mean time between faults is
/// mtbf_factor times the trial's total filtered-op count.
struct FaultScenario {
  FaultDomain domain = FaultDomain::RegisterOperand;
  FaultPattern pattern = FaultPattern::SingleBit;
  ArrivalModel arrival = ArrivalModel::FixedOpIndex;
  KindMask kinds = KindMask::AddMul;
  RegionMask regions = RegionMask::All;
  double mtbf_factor = 0.5;

  friend bool operator==(const FaultScenario&,
                         const FaultScenario&) = default;

  /// True when the scenario is expressible in the pre-scenario schema
  /// (register operand, fixed arrival, one of the original patterns, the
  /// default MTBF): such configs serialize exactly as they always did,
  /// so old saved campaigns stay byte-identical under load + re-save.
  [[nodiscard]] bool legacy() const noexcept {
    return domain == FaultDomain::RegisterOperand &&
           arrival == ArrivalModel::FixedOpIndex &&
           (pattern == FaultPattern::SingleBit ||
            pattern == FaultPattern::DoubleBit ||
            pattern == FaultPattern::Burst4) &&
           mtbf_factor == 0.5;
  }

  /// True for fail-stop scenarios (rank death instead of a flip).
  [[nodiscard]] bool crash() const noexcept {
    return pattern == FaultPattern::RankCrash;
  }
};

/// One named catalog entry.
struct ScenarioCatalogEntry {
  const char* name;
  FaultScenario scenario;
  const char* summary;
};

/// The built-in scenario catalog, in display order. "paper" is the
/// default (and the implicit scenario of every pre-catalog campaign).
[[nodiscard]] std::span<const ScenarioCatalogEntry> scenario_catalog() noexcept;

/// Catalog entry by name, or nullptr when unknown.
[[nodiscard]] const ScenarioCatalogEntry* find_scenario(
    std::string_view name) noexcept;

/// Catalog scenario by name; throws std::invalid_argument listing the
/// known names when `name` is not in the catalog.
[[nodiscard]] FaultScenario scenario_by_name(std::string_view name);

/// The catalog name of `scenario` ("custom" when no entry matches
/// exactly).
[[nodiscard]] const char* scenario_name(const FaultScenario& scenario) noexcept;

}  // namespace resilience::fsefi
