// Reproduces the Section 1 motivation numbers: parallel execution runs
// more dynamic instructions than serial execution of the same input
// problem, and fault-injection time grows accordingly — the cost argument
// for modeling instead of measuring at large scale.
//
// Paper (NPB CG, F-SEFI): 4 MPI processes execute +74.5% instructions vs
// serial; fault-injection time +58%; plain execution time differs by 15%.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "apps/ft.hpp"
#include "bench_common.hpp"
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/executor.hpp"
#include "harness/golden_store.hpp"
#include "shard/coordinator.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

/// External wall-clock of one campaign run (the executor's own
/// wall_seconds reports serial-equivalent cost, which by design does not
/// show the speedup).
double time_campaign(const resilience::apps::App& app,
                     resilience::harness::DeploymentConfig dep) {
  const auto start = std::chrono::steady_clock::now();
  (void)resilience::harness::CampaignRunner::run(app, dep);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resilience;
  // The sharded leg's coordinator re-execs this binary as its worker
  // processes; the worker hook must run before anything else.
  if (const int rc = shard::maybe_worker_main(argc, argv); rc >= 0) {
    return rc;
  }
  const auto cfg = util::BenchConfig::from_env(/*default_trials=*/200);
  bench::print_header(
      "Section 1 motivation: instruction and fault-injection-time growth "
      "with scale (CG)",
      cfg);

  const auto app = apps::make_app(apps::AppId::CG);

  util::TablePrinter table({"deployment", "dynamic FP ops", "vs serial",
                            "messages/run", "FI wall time", "vs serial"});
  util::JsonArray deployments;
  double serial_ops = 0.0, serial_time = 0.0;
  for (int ranks : {1, 4, 8}) {
    harness::DeploymentConfig dep;
    dep.nranks = ranks;
    dep.trials = cfg.trials;
    dep.seed = cfg.seed;
    const auto campaign = harness::CampaignRunner::run(*app, dep);
    double total_ops = 0.0;
    for (const auto& prof : campaign.golden.profiles) {
      total_ops += static_cast<double>(prof.total());
    }
    // One clean run's transport volume (the other cost that scales).
    const auto probe = harness::run_app_once(*app, ranks, /*plans=*/{});
    if (ranks == 1) {
      serial_ops = total_ops;
      serial_time = campaign.wall_seconds;
    }
    table.add_row(
        {std::to_string(ranks) + (ranks == 1 ? " rank (serial)" : " ranks"),
         bench::fmt(total_ops, 0),
         ranks == 1 ? "-" : "+" + bench::pct(total_ops / serial_ops - 1.0),
         std::to_string(probe.runtime.messages_sent),
         bench::fmt(campaign.wall_seconds, 2) + " s",
         ranks == 1
             ? "-"
             : "+" + bench::pct(campaign.wall_seconds / serial_time - 1.0)});
    util::JsonObject dep_json;
    dep_json["nranks"] = util::Json(ranks);
    dep_json["dynamic_fp_ops"] = util::Json(total_ops);
    dep_json["messages_per_run"] = util::Json(probe.runtime.messages_sent);
    dep_json["bytes_per_run"] = util::Json(probe.runtime.bytes_sent);
    dep_json["buffer_allocs_per_run"] = util::Json(probe.runtime.pool_allocs);
    dep_json["buffer_reuses_per_run"] = util::Json(probe.runtime.pool_reuses);
    dep_json["fi_wall_seconds"] = util::Json(campaign.wall_seconds);
    deployments.push_back(util::Json(std::move(dep_json)));
  }
  table.print();

  // Campaign-executor speedup: the same deployment on 1 worker vs the
  // auto worker count (RESILIENCE_THREADS / hardware concurrency).
  // Results are bit-identical; only the wall clock moves.
  util::JsonObject executor_json;
  {
    harness::DeploymentConfig dep;
    dep.nranks = 4;
    dep.trials = std::min<std::size_t>(cfg.trials, 200);
    dep.seed = cfg.seed;
    dep.max_workers = 1;
    const double serial_wall = time_campaign(*app, dep);
    dep.max_workers = 0;
    const double parallel_wall = time_campaign(*app, dep);
    const int workers = harness::Executor::resolve_workers(0);
    std::cout << "\nCampaign executor (CG, 4 ranks, " << dep.trials
              << " trials): " << bench::fmt(serial_wall, 2)
              << " s serial vs " << bench::fmt(parallel_wall, 2) << " s on "
              << workers << " workers — "
              << bench::fmt(serial_wall / parallel_wall, 1)
              << "x speedup, bit-identical results.\n";
    executor_json["trials"] = util::Json(dep.trials);
    executor_json["serial_wall_seconds"] = util::Json(serial_wall);
    executor_json["parallel_wall_seconds"] = util::Json(parallel_wall);
    executor_json["workers"] = util::Json(workers);
    executor_json["speedup"] = util::Json(serial_wall / parallel_wall);
  }

  // Golden-checkpoint fast path (DESIGN.md §9): the same single-flip
  // trials with checkpoint fast-forward + early-exit pruning on vs
  // set_checkpoint_enabled(false). The late mix draws every flip
  // from the last quarter of the target rank's filtered stream — the
  // regime where skipping the fault-free prefix pays most — the early
  // mix from the whole stream. Results are bit-identical either way
  // (tests/integration/test_checkpoint_diff.cpp); only the wall moves.
  util::JsonArray checkpoint_json;
  {
    harness::set_checkpoint_enabled(true);
    std::vector<std::unique_ptr<apps::App>> ckpt_apps;
    ckpt_apps.push_back(apps::make_app(apps::AppId::CG));
    // FT's stock S class runs a single iteration (no interior boundaries
    // to checkpoint); a 4-iteration variant represents the sweep apps.
    ckpt_apps.push_back(std::make_unique<apps::FtApp>(
        apps::FtApp::Config{.n = 64, .iterations = 4}, "S4"));
    const int nranks = 4;
    const std::size_t trials = std::min<std::size_t>(cfg.trials, 200);
    std::cout << "\nCheckpoint fast path (" << trials
              << " single-flip trials, " << nranks << " ranks):\n";
    for (const auto& ckpt_app : ckpt_apps) {
      const auto golden =
          harness::profile_app(*ckpt_app, nranks, /*capture_checkpoints=*/true);
      for (const bool late : {true, false}) {
        std::vector<std::vector<fsefi::InjectionPlan>> all_plans;
        all_plans.reserve(trials);
        util::Xoshiro256 rng(
            util::derive_seed(cfg.seed, late ? 0x1a7eu : 0xea51u));
        for (std::size_t t = 0; t < trials; ++t) {
          std::vector<fsefi::InjectionPlan> plans(
              static_cast<std::size_t>(nranks));
          auto& plan = plans[t % static_cast<std::size_t>(nranks)];
          const std::uint64_t matching =
              golden.profiles[t % static_cast<std::size_t>(nranks)].matching(
                  plan.kinds, plan.regions);
          const std::uint64_t lo = late ? matching - matching / 4 : 0;
          plan.points = {
              {.op_index = static_cast<std::uint64_t>(rng.uniform_int(
                   static_cast<std::int64_t>(lo),
                   static_cast<std::int64_t>(matching - 1))),
               .operand = 0,
               .bit = static_cast<std::uint8_t>(rng.uniform_int(0, 63))}};
          all_plans.push_back(std::move(plans));
        }
        struct Leg {
          double wall = 0.0;
          std::size_t restores = 0;
          std::size_t early_exits = 0;
        };
        auto run_leg = [&](bool enabled) {
          Leg leg;
          const auto start = std::chrono::steady_clock::now();
          for (const auto& plans : all_plans) {
            harness::RunOptions opts;
            if (enabled) opts.checkpoints = golden.checkpoints.get();
            const auto out =
                harness::run_app_once(*ckpt_app, nranks, plans, opts);
            leg.restores += out.checkpoint_restored ? 1 : 0;
            leg.early_exits += out.early_exit ? 1 : 0;
          }
          leg.wall = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
          return leg;
        };
        const Leg off = run_leg(false);
        const Leg on = run_leg(true);
        const char* mix = late ? "late" : "uniform";
        std::cout << "  " << ckpt_app->label() << " " << mix << " mix: "
                  << bench::fmt(off.wall, 2) << " s off vs "
                  << bench::fmt(on.wall, 2) << " s on — "
                  << bench::fmt(off.wall / on.wall, 1) << "x ("
                  << on.restores << " restores, " << on.early_exits
                  << " early exits)\n";
        util::JsonObject leg_json;
        leg_json["app"] = util::Json(ckpt_app->label());
        leg_json["mix"] = util::Json(std::string(mix));
        leg_json["nranks"] = util::Json(nranks);
        leg_json["trials"] = util::Json(trials);
        leg_json["off_wall_seconds"] = util::Json(off.wall);
        leg_json["on_wall_seconds"] = util::Json(on.wall);
        leg_json["restores"] = util::Json(on.restores);
        leg_json["early_exits"] = util::Json(on.early_exits);
        checkpoint_json.push_back(util::Json(std::move(leg_json)));
      }
    }
  }

  // Adaptive campaign engine (DESIGN.md §12): the same trial budget with
  // CI-driven early stopping + stratified sampling vs running the fixed
  // budget to the end. The adaptive leg stops once every outcome rate is
  // pinned to ±5% at 95%, so the ratio requested/executed is the trial
  // reduction the engine buys at that envelope (merge_bench.py bar:
  // >= 3x mean across legs), and the fixed run's rates must land inside
  // the reported intervals.
  util::JsonArray adaptive_json;
  {
    const std::size_t cap = cfg.trials * 10;
    std::vector<std::unique_ptr<apps::App>> ad_apps;
    ad_apps.push_back(apps::make_app(apps::AppId::CG));
    ad_apps.push_back(std::make_unique<apps::FtApp>(
        apps::FtApp::Config{.n = 64, .iterations = 4}, "S4"));
    std::cout << "\nAdaptive campaigns (" << cap
              << "-trial budget, 4 ranks, +-5% CI at 95%):\n";
    for (const auto& ad_app : ad_apps) {
      harness::DeploymentConfig dep;
      dep.nranks = 4;
      dep.trials = cap;
      dep.seed = cfg.seed;
      const auto fixed_start = std::chrono::steady_clock::now();
      const auto fixed = harness::CampaignRunner::run(*ad_app, dep);
      const double fixed_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        fixed_start)
              .count();
      dep.adaptive.enabled = true;
      dep.adaptive.ci_half_width = 0.05;
      const auto adaptive_start = std::chrono::steady_clock::now();
      const auto adaptive = harness::CampaignRunner::run(*ad_app, dep);
      const double adaptive_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        adaptive_start)
              .count();
      const auto& stats = *adaptive.adaptive;
      const double fixed_rate = fixed.overall.success_rate();
      const bool in_ci = stats.success.contains(fixed_rate);
      std::cout << "  " << ad_app->label() << ": " << stats.trials_executed
                << " of " << stats.trials_requested << " trials ("
                << bench::fmt(stats.trial_reduction(), 1) << "x fewer, "
                << to_string(stats.stop_reason) << ", " << stats.strata
                << " strata), " << bench::fmt(fixed_wall, 2) << " s fixed vs "
                << bench::fmt(adaptive_wall, 2)
                << " s adaptive; fixed success rate "
                << bench::pct(fixed_rate) << " is "
                << (in_ci ? "inside" : "** OUTSIDE **")
                << " the adaptive CI [" << bench::pct(stats.success.lo)
                << ", " << bench::pct(stats.success.hi) << "]\n";
      util::JsonObject leg_json;
      leg_json["app"] = util::Json(ad_app->label());
      leg_json["nranks"] = util::Json(dep.nranks);
      leg_json["ci_half_width"] = util::Json(dep.adaptive.ci_half_width);
      leg_json["trials_requested"] = util::Json(stats.trials_requested);
      leg_json["trials_executed"] = util::Json(stats.trials_executed);
      leg_json["stop_reason"] =
          util::Json(std::string(to_string(stats.stop_reason)));
      leg_json["strata"] = util::Json(stats.strata);
      leg_json["fixed_wall_seconds"] = util::Json(fixed_wall);
      leg_json["adaptive_wall_seconds"] = util::Json(adaptive_wall);
      leg_json["fixed_success_rate"] = util::Json(fixed_rate);
      leg_json["success_rate"] = util::Json(stats.success.rate);
      leg_json["success_ci_lo"] = util::Json(stats.success.lo);
      leg_json["success_ci_hi"] = util::Json(stats.success.hi);
      leg_json["fixed_rate_in_ci"] = util::Json(in_ci);
      adaptive_json.push_back(util::Json(std::move(leg_json)));
    }
  }

  // Sharded campaign execution (DESIGN.md §13): the same deployment run
  // in-process on one worker vs fanned out across coordinator-spawned
  // worker processes (this binary re-exec'd with --shard-worker).
  // Results are bit-identical (tests/shard/test_shard.cpp); only the
  // wall clock moves (merge_bench.py bar: >= 2x at 4 shards). The
  // store-reuse leg runs the same sharded campaign twice against a
  // persistent golden store: the second invocation re-profiles nothing
  // and serves the coordinator and every worker from disk.
  util::JsonObject shard_json;
  {
    harness::DeploymentConfig dep;
    dep.nranks = 4;
    dep.trials = std::min<std::size_t>(cfg.trials, 200);
    dep.seed = cfg.seed;
    dep.max_workers = 1;  // trials-per-process are serial in both legs
    const double serial_wall = time_campaign(*app, dep);

    const auto time_sharded = [&](int shards, const std::string& store) {
      shard::ShardOptions opts;
      opts.shards = shards;
      opts.golden_store_dir = store;
      const auto start = std::chrono::steady_clock::now();
      auto result = shard::run_sharded_campaign(*app, dep, opts);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      return std::pair<double, harness::CampaignResult>(wall,
                                                        std::move(result));
    };

    const double one_wall = time_sharded(1, "").first;
    const double four_wall = time_sharded(4, "").first;
    const double speedup = serial_wall / four_wall;
    std::cout << "\nSharded campaigns (CG, 4 ranks, " << dep.trials
              << " trials): " << bench::fmt(serial_wall, 2)
              << " s in-process serial vs " << bench::fmt(one_wall, 2)
              << " s on 1 shard vs " << bench::fmt(four_wall, 2)
              << " s on 4 shards — " << bench::fmt(speedup, 1)
              << "x speedup, bit-identical results.\n";

    const std::string store_dir =
        (std::filesystem::temp_directory_path() /
         ("resilience-bench-store-" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(store_dir);
    (void)time_sharded(4, store_dir);  // fills the store
    const auto [reuse_wall, reuse] = time_sharded(4, store_dir);
    std::filesystem::remove_all(store_dir);
    const auto hits = reuse.metrics.value(telemetry::Counter::GoldenStoreHits);
    const auto misses =
        reuse.metrics.value(telemetry::Counter::GoldenStoreMisses);
    const auto profiles =
        reuse.metrics.value(telemetry::Counter::HarnessGoldenProfiles);
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    std::cout << "  Golden-store reuse: second 4-shard run took "
              << bench::fmt(reuse_wall, 2) << " s with " << hits
              << " store hits / " << misses << " misses ("
              << bench::pct(hit_rate) << " hit rate, " << profiles
              << " re-profiles).\n";

    shard_json["trials"] = util::Json(dep.trials);
    shard_json["nranks"] = util::Json(dep.nranks);
    shard_json["serial_wall_seconds"] = util::Json(serial_wall);
    shard_json["one_shard_wall_seconds"] = util::Json(one_wall);
    shard_json["shards"] = util::Json(4);
    shard_json["sharded_wall_seconds"] = util::Json(four_wall);
    shard_json["speedup"] = util::Json(speedup);
    shard_json["reuse_wall_seconds"] = util::Json(reuse_wall);
    shard_json["reuse_store_hits"] = util::Json(hits);
    shard_json["reuse_store_misses"] = util::Json(misses);
    shard_json["reuse_profiles"] = util::Json(profiles);
    shard_json["store_hit_rate"] = util::Json(hit_rate);
  }

  // Binary substrate (DESIGN.md §15): golden-store save/load and shard
  // frame encode/decode, as absolute times. The store numbers time the
  // full disk round trip (serialize + atomic rename, open + validate +
  // materialize); the frame numbers time the payload codecs alone.
  // merge_bench.py records the store file size as golden_store_bytes.
  util::JsonObject serialization_json;
  {
    // FT S4's checkpoint state (the full per-rank grid at each stored
    // boundary) gives the store a realistically sized golden run — on a
    // CG (S) file the fixed open/stat cost hides the codec cost.
    const apps::FtApp store_app(apps::FtApp::Config{.n = 64, .iterations = 4},
                                "S4");
    const int nranks = 4;
    const auto golden =
        harness::profile_app(store_app, nranks, /*capture_checkpoints=*/true);
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("resilience-bench-serialize-" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    // Mean seconds per call of `fn` over `iters` calls.
    const auto per_call = [](int iters, const auto& fn) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) fn();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count() /
             iters;
    };

    constexpr int kStoreIters = 20;
    std::cout << "\nSerialization substrate (FT S4 golden run, " << nranks
              << " ranks, checkpoints included; " << kStoreIters
              << " iterations):\n";
    harness::GoldenStore store(dir);
    const double save_seconds = per_call(
        kStoreIters, [&] { store.put(store_app, nranks, golden); });
    const std::uintmax_t file_bytes =
        std::filesystem::file_size(store.path_for(store_app, nranks));
    const double load_seconds = per_call(kStoreIters, [&] {
      if (store.load(store_app, nranks) == nullptr) std::abort();
    });
    std::filesystem::remove_all(dir);
    std::cout << "  golden store save: " << bench::fmt(save_seconds * 1e3, 2)
              << " ms\n  golden store load: "
              << bench::fmt(load_seconds * 1e3, 2) << " ms\n  file size: "
              << file_bytes << " bytes\n";

    // Frame codecs over a representative result frame: one 64-trial unit's
    // outcomes plus the full metrics snapshot it carries home.
    constexpr int kFrameIters = 2000;
    shard::ResultMsg result;
    result.id = 7;
    util::Xoshiro256 rng(cfg.seed);
    for (int i = 0; i < 64; ++i) {
      result.outcomes.push_back(
          {static_cast<harness::Outcome>(rng.uniform_int(0, 2)),
           static_cast<int>(rng.uniform_int(0, 4))});
    }
    result.wall_seconds = 1.5;
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
      result.metrics.counters[c] = rng.next();
    }
    const shard::Message message{result};
    std::vector<std::byte> payload;
    const double encode_seconds = per_call(
        kFrameIters, [&] { payload = shard::encode_message(message); });
    const double decode_seconds = per_call(
        kFrameIters, [&] { (void)shard::decode_message(payload); });
    std::cout << "  result frame encode: " << bench::fmt(encode_seconds * 1e6, 1)
              << " us\n  result frame decode: "
              << bench::fmt(decode_seconds * 1e6, 1) << " us ("
              << payload.size() << "-byte payload)\n";

    serialization_json["golden_store"] = util::JsonObject{
        {"iterations", kStoreIters},
        {"nranks", nranks},
        {"save_seconds", save_seconds},
        {"load_seconds", load_seconds},
        {"file_bytes", static_cast<std::size_t>(file_bytes)}};
    serialization_json["result_frame"] = util::JsonObject{
        {"iterations", kFrameIters},
        {"outcomes", 64},
        {"encode_seconds", encode_seconds},
        {"decode_seconds", decode_seconds},
        {"payload_bytes", payload.size()}};
  }

  // Machine-readable mirror of the numbers above, merged into
  // BENCH_substrate.json by tools/merge_bench.py.
  {
    util::JsonObject root;
    root["bench"] = util::Json("intro_overhead");
    root["app"] = util::Json(app->label());
    root["trials"] = util::Json(cfg.trials);
    root["seed"] = util::Json(cfg.seed);
    root["deployments"] = util::Json(std::move(deployments));
    root["executor"] = util::Json(std::move(executor_json));
    root["checkpoint"] = util::Json(std::move(checkpoint_json));
    root["adaptive"] = util::Json(std::move(adaptive_json));
    root["shard"] = util::Json(std::move(shard_json));
    root["serialization"] = util::Json(std::move(serialization_json));
    // Host-load stamp: merge_bench.py flags dumps taken on a saturated
    // host, where wall-clock ratios are unreliable.
    double loads[1] = {0.0};
    if (::getloadavg(loads, 1) == 1) {
      root["load_avg"] = util::Json(loads[0]);
    }
    root["num_cpus"] =
        util::Json(static_cast<int>(std::thread::hardware_concurrency()));
    std::ofstream out("BENCH_intro_overhead.json");
    out << util::Json(std::move(root)).dump(2) << "\n";
  }

  std::cout
      << "\nPaper reference (NPB CG on F-SEFI): 4 ranks ran +74.5% "
         "instructions and +58% fault-injection time vs serial.\n"
         "In this reproduction the instrumented app-level FP work is nearly "
         "scale-invariant (MPI-internal work is uninstrumented), so the FI "
         "time growth is driven by the per-run messaging and scheduling "
         "volume shown in the messages column.\n";
  return 0;
}
