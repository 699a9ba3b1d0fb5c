// Shard coordinator (DESIGN.md §13): multi-process campaign execution.
//
// The coordinator splits a campaign's trials into work units of TrialRefs
// and farms them to worker processes (the same binary re-exec'd with
// --shard-worker) over Unix-domain socketpairs. Because a trial's
// randomness is a pure function of (config.seed, ref) and tallies are
// folded in ref order, the merged result is bit-identical to
// CampaignRunner::run on one process — sharding is execution policy, like
// the in-process executor's worker count.
//
// The golden pre-pass runs exactly once: the coordinator fills the
// on-disk GoldenStore before spawning workers, and workers load the
// golden run (checkpoints included) from disk.
//
// Crash recovery: a worker that EOFs, errors, exceeds the unit timeout,
// or sends a result that does not answer its in-flight unit (wrong id,
// wrong outcome count, nothing in flight) is reaped, its in-flight unit
// is re-enqueued, and a replacement is spawned (shard.worker_restarts);
// the re-run unit produces the same outcomes, so a crash costs time,
// never correctness.
#pragma once

#include <chrono>
#include <string>

#include "harness/campaign.hpp"
#include "shard/protocol.hpp"

namespace resilience::shard {

struct ShardOptions {
  /// Worker processes. Values < 1 are treated as 1.
  int shards = 2;
  /// GoldenStore directory shared by coordinator and workers. Empty: a
  /// private temp directory, removed when the campaign returns or throws
  /// (the store then only de-duplicates the pre-pass within this run).
  std::string golden_store_dir;
  /// Worker binary; empty re-executes this binary (/proc/self/exe).
  std::string worker_path;
  /// A worker that holds one unit longer than this is presumed wedged:
  /// killed, re-enqueued, replaced.
  std::chrono::milliseconds unit_timeout{600'000};
  /// Replacement workers spawned over the campaign before giving up and
  /// failing the run.
  int max_worker_restarts = 8;
  /// Testing hook (RESILIENCE_SHARD_KILL): worker 0's first incarnation
  /// SIGKILLs itself after completing this many units, exercising the
  /// recovery path; until it dies no other worker receives a unit. -1 =
  /// off.
  int debug_kill_unit = -1;

  /// Resolve from RESILIENCE_SHARDS / RESILIENCE_GOLDEN_STORE /
  /// RESILIENCE_SHARD_KILL (util::RuntimeOptions).
  static ShardOptions from_runtime();
};

/// Execute the campaign across `opts.shards` worker processes. Blocking;
/// returns the same CampaignResult (bit-identical outcomes, tallies, and
/// saved JSON modulo wall_seconds) as CampaignRunner::run(app, config).
/// Throws std::runtime_error when workers cannot be spawned or die more
/// than opts.max_worker_restarts times.
harness::CampaignResult run_sharded_campaign(
    const apps::App& app, const harness::DeploymentConfig& config,
    const ShardOptions& opts,
    telemetry::MetricScope* metrics_parent = nullptr);

}  // namespace resilience::shard
