// The single translation unit allowed to read the process environment
// (see options.hpp). env_int/env_flag/env_str declared in env.hpp live
// here for that reason.
#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <iterator>
#include <string_view>

#include <unistd.h>

namespace resilience::util {

namespace {

// Every RESILIENCE_* variable a parse site in this file reads, each
// spelled once. The parse sites take their names through knob(), which
// does not compile for a name missing here, and tools/check_knobs.py
// fails when an entry has no parse site; from_env() warns about any other
// RESILIENCE_* variable set in the environment.
constexpr std::string_view kKnobs[] = {
    "RESILIENCE_TRIALS",       "RESILIENCE_SEED",
    "RESILIENCE_THREADS",      "RESILIENCE_GOLDEN_STORE",
    "RESILIENCE_SHARD_KILL",   "RESILIENCE_FRAME_CAP_MB",
};

consteval const char* knob(std::string_view name) {
  const std::string_view* known = std::ranges::find(kKnobs, name);
  if (known == std::end(kKnobs)) throw "knob() names no entry of kKnobs";
  return known->data();
}

/// Warn once per RESILIENCE_* variable in the environment that no parse
/// site reads: a deleted or misspelt knob must not vanish silently.
void warn_unknown_knobs() {
  constexpr std::string_view kPrefix = "RESILIENCE_";
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    if (!var.starts_with(kPrefix)) continue;
    const std::string_view name = var.substr(0, var.find('='));
    if (std::ranges::find(kKnobs, name) != std::end(kKnobs)) continue;
    std::fprintf(stderr,
                 "warning: %.*s: no such knob, ignoring it (see the "
                 "README's knob table)\n",
                 static_cast<int>(name.size()), name.data());
  }
}

}  // namespace

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "warning: %s: ignoring non-numeric value \"%s\", using "
                 "default %lld\n",
                 name, raw, static_cast<long long>(fallback));
    return fallback;
  }
  if (parsed < min_value) {
    std::fprintf(stderr,
                 "warning: %s: value %lld is below the minimum %lld, "
                 "clamping\n",
                 name, parsed, static_cast<long long>(min_value));
    return min_value;
  }
  return parsed;
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (std::strcmp(raw, "0") == 0) return false;
  if (std::strcmp(raw, "1") == 0) return true;
  std::fprintf(stderr,
               "warning: %s: ignoring invalid value \"%s\" (expected 0 or "
               "1), using default %d\n",
               name, raw, fallback ? 1 : 0);
  return fallback;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

BenchConfig BenchConfig::from_env(std::size_t default_trials) {
  BenchConfig cfg{};
  cfg.trials = static_cast<std::size_t>(env_int(
      knob("RESILIENCE_TRIALS"), static_cast<std::int64_t>(default_trials)));
  cfg.seed = static_cast<std::uint64_t>(
      env_int(knob("RESILIENCE_SEED"), 20180813, /*min_value=*/0));
  return cfg;
}

RuntimeOptions RuntimeOptions::from_env() {
  RuntimeOptions options;
  options.threads = static_cast<int>(
      env_int(knob("RESILIENCE_THREADS"), 0, /*min_value=*/0));
  options.golden_store = env_str(knob("RESILIENCE_GOLDEN_STORE"), "");
  options.shard_kill_unit = static_cast<int>(
      env_int(knob("RESILIENCE_SHARD_KILL"), -1, /*min_value=*/-1));
  options.frame_cap_mb = static_cast<std::size_t>(
      env_int(knob("RESILIENCE_FRAME_CAP_MB"),
              static_cast<std::int64_t>(options.frame_cap_mb),
              /*min_value=*/1));
  warn_unknown_knobs();
  return options;
}

namespace {

std::mutex& global_mutex() {
  static std::mutex mu;
  return mu;
}

// Leaked on purpose: read during static destruction is possible (atexit
// flushes) and a destructed options object would be a trap.
RuntimeOptions*& global_slot() {
  static RuntimeOptions* slot = nullptr;
  return slot;
}

}  // namespace

const RuntimeOptions& RuntimeOptions::global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  RuntimeOptions*& slot = global_slot();
  if (slot == nullptr) slot = new RuntimeOptions(from_env());
  return *slot;
}

void RuntimeOptions::set_global(const RuntimeOptions& options) {
  std::lock_guard<std::mutex> lock(global_mutex());
  RuntimeOptions*& slot = global_slot();
  if (slot == nullptr) {
    slot = new RuntimeOptions(options);
  } else {
    *slot = options;
  }
}

void RuntimeOptions::reset_global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  RuntimeOptions*& slot = global_slot();
  delete slot;
  slot = nullptr;
}

}  // namespace resilience::util
