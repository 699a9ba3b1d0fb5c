// Environment-variable configuration used to scale campaign sizes.
//
// The paper runs 4000 fault-injection tests per deployment on a cluster;
// the bench binaries default to smaller counts so the whole suite finishes
// on one workstation, and these helpers let the user restore paper-scale
// counts (e.g. RESILIENCE_TRIALS=4000) without rebuilding.
#pragma once

#include <cstdint>
#include <string>

namespace resilience::util {

/// Read an integer environment variable; returns `fallback` when unset.
/// Non-numeric values are rejected with a warning on stderr (instead of
/// silently defaulting); values below `min_value` warn and clamp.
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min_value = 1);

/// Read a boolean ("0"/"1") environment variable; returns `fallback` when
/// unset. Anything other than 0 or 1 warns on stderr and falls back.
bool env_flag(const char* name, bool fallback);

/// Read a string environment variable; returns `fallback` when unset.
std::string env_str(const char* name, const std::string& fallback);

/// Campaign-size knobs shared by the bench harnesses.
struct BenchConfig {
  /// Fault-injection tests per deployment (paper: 4000).
  std::size_t trials;
  /// Base seed for all campaigns.
  std::uint64_t seed;

  /// Reads RESILIENCE_TRIALS and RESILIENCE_SEED.
  static BenchConfig from_env(std::size_t default_trials = 400);
};

}  // namespace resilience::util
