#include "fsefi/scenario.hpp"

#include <stdexcept>
#include <string>

namespace resilience::fsefi {

namespace {

constexpr FaultScenario scenario_with(FaultDomain domain, FaultPattern pattern,
                                      ArrivalModel arrival) noexcept {
  FaultScenario s;
  s.domain = domain;
  s.pattern = pattern;
  s.arrival = arrival;
  return s;
}

const ScenarioCatalogEntry kCatalog[] = {
    {"paper", FaultScenario{},
     "the paper's model: single-bit flip in one FP add/mul register "
     "operand at a uniform dynamic-op index"},
    {"register-byte",
     scenario_with(FaultDomain::RegisterOperand, FaultPattern::Byte,
                   ArrivalModel::FixedOpIndex),
     "byte-granularity register corruption: 8 adjacent bits at a byte "
     "boundary of one operand"},
    {"payload",
     scenario_with(FaultDomain::MessagePayload, FaultPattern::SingleBit,
                   ArrivalModel::FixedOpIndex),
     "in-flight message corruption: single-bit flip in one Real element "
     "as a receive delivers it into the target rank"},
    {"state",
     scenario_with(FaultDomain::ResidentState, FaultPattern::SingleBit,
                   ArrivalModel::FixedOpIndex),
     "resident-state corruption: single-bit flip in one live-state Real "
     "at a uniformly drawn iteration boundary"},
    {"poisson",
     scenario_with(FaultDomain::RegisterOperand, FaultPattern::SingleBit,
                   ArrivalModel::PoissonTimeline),
     "multi-fault timeline: single-bit register flips arriving as a "
     "Poisson process over the filtered op stream (>= 1 per trial; MTBF "
     "set by --mtbf)"},
    {"crash",
     scenario_with(FaultDomain::RegisterOperand, FaultPattern::RankCrash,
                   ArrivalModel::FixedOpIndex),
     "fail-stop: the target rank dies at the drawn dynamic op; surviving "
     "ranks observe the abort mid-collective"},
};

}  // namespace

const char* to_string(FaultDomain domain) noexcept {
  switch (domain) {
    case FaultDomain::RegisterOperand:
      return "register-operand";
    case FaultDomain::MessagePayload:
      return "message-payload";
    case FaultDomain::ResidentState:
      return "resident-state";
  }
  return "?";
}

const char* to_string(ArrivalModel arrival) noexcept {
  switch (arrival) {
    case ArrivalModel::FixedOpIndex:
      return "fixed-op-index";
    case ArrivalModel::PoissonTimeline:
      return "poisson-timeline";
  }
  return "?";
}

std::span<const ScenarioCatalogEntry> scenario_catalog() noexcept {
  return kCatalog;
}

const ScenarioCatalogEntry* find_scenario(std::string_view name) noexcept {
  for (const ScenarioCatalogEntry& entry : kCatalog) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

FaultScenario scenario_by_name(std::string_view name) {
  if (const ScenarioCatalogEntry* entry = find_scenario(name)) {
    return entry->scenario;
  }
  std::string known;
  for (const ScenarioCatalogEntry& entry : kCatalog) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown scenario \"" + std::string(name) +
                              "\" (known: " + known + ")");
}

const char* scenario_name(const FaultScenario& scenario) noexcept {
  for (const ScenarioCatalogEntry& entry : kCatalog) {
    // The catalog names the (domain, pattern, arrival) shape; kind/region
    // filters and the MTBF are per-deployment knobs on top of it.
    if (entry.scenario.domain == scenario.domain &&
        entry.scenario.pattern == scenario.pattern &&
        entry.scenario.arrival == scenario.arrival) {
      return entry.name;
    }
  }
  return "custom";
}

}  // namespace resilience::fsefi
