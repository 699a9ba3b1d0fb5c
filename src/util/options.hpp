// RuntimeOptions: the RESILIENCE_* environment knobs that have no other
// way in, resolved in one place.
//
// RuntimeOptions::from_env() is the only code path that touches the
// process environment (the repo-wide invariant is: no getenv/env_int call
// sites outside util/options.cpp), and global() is the resolved-once copy
// every layer consumes. Tests inject a configuration with set_global() and
// restore the environment-derived one with reset_global().
//
// Every other setting has exactly one way in: a CLI flag or a config
// field (DeploymentConfig, AdaptiveConfig, ShardOptions), or, for the
// fast-real and checkpoint reference paths, the layer's
// set_*_enabled() seam.
//
// Process-internal encodings have no knob: the shard wire speaks binio
// frames only and the golden store reads and writes golden-v2 files only
// (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <string>

#include "util/env.hpp"

namespace resilience::util {

/// One resolved copy of every RuntimeOptions knob.
struct RuntimeOptions {
  /// RESILIENCE_THREADS — campaign executor worker count; 0 = auto
  /// (hardware concurrency).
  int threads = 0;
  /// RESILIENCE_GOLDEN_STORE — on-disk golden-run store directory ("" =
  /// none for in-process runs; sharded runs fall back to a private temp
  /// store). A persistent directory lets repeated invocations skip the
  /// golden pre-pass entirely.
  std::string golden_store;
  /// RESILIENCE_SHARD_KILL — crash-recovery testing hook: worker 0's
  /// first incarnation SIGKILLs itself after completing this many units.
  /// -1 = off.
  int shard_kill_unit = -1;
  /// RESILIENCE_FRAME_CAP_MB — largest shard frame either side will
  /// write or accept, in MiB. A backstop against corrupted length
  /// prefixes; raise it for apps whose metrics/result payloads
  /// legitimately exceed the default.
  std::size_t frame_cap_mb = 256;

  /// Resolve every knob from the environment (warning on stderr for each
  /// malformed value, which then falls back to the default above, and
  /// for each RESILIENCE_* variable that no knob reads).
  static RuntimeOptions from_env();

  /// The process-wide options: resolved from the environment once on
  /// first use, unless a test replaced them via set_global().
  static const RuntimeOptions& global();

  /// Replace the process-wide options (tests).
  static void set_global(const RuntimeOptions& options);

  /// Drop an injected global; the next global() re-reads the environment.
  static void reset_global();
};

}  // namespace resilience::util
