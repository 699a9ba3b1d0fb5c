// Layer probes of the traced run. Each times one public call into one
// layer (apps, fsefi, simmpi, harness, shard, core) on the workload's own
// deployments; none of them runs in the timed run.
#include <filesystem>
#include <functional>
#include <map>

#include "bench.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/golden_cache.hpp"
#include "harness/golden_store.hpp"
#include "harness/runner.hpp"
#include "shard/coordinator.hpp"
#include "shard/protocol.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

namespace {

using res::apps::AppId;

/// Median wall seconds of `reps` calls of `fn`.
double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start));
  }
  return median(std::move(times));
}

std::uint64_t total_ops(const std::vector<res::fsefi::OpCountProfile>& ranks) {
  std::uint64_t ops = 0;
  for (const auto& profile : ranks) ops += profile.total();
  return ops;
}

}  // namespace

void run_probes(const Workload& workload, const PassResult& sample_pass,
                const std::string& work_dir, bool tiny, MetricTable& out) {
  const int reps = tiny ? 1 : 3;
  const int launch_reps = tiny ? 3 : 30;
  const int codec_reps = tiny ? 20 : 2000;
  auto put = [&out](const std::string& name, double value, const char* unit) {
    out[name] = {value, unit};
  };

  std::map<AppId, std::unique_ptr<res::apps::App>> apps;
  for (const Deployment& d : workload.deployments()) {
    if (!apps.count(d.app)) apps[d.app] = res::apps::make_app(d.app);
  }

  // ---- apps + simmpi: one fault-free run per deployment ------------------
  double ops = 0.0, messages = 0.0, bytes = 0.0;
  for (const Deployment& d : workload.deployments()) {
    const auto run = res::harness::run_app_once(*apps[d.app], d.nranks, {});
    ops += static_cast<double>(total_ops(run.profiles));
    messages += static_cast<double>(run.runtime.messages_sent);
    bytes += static_cast<double>(run.runtime.bytes_sent);
  }
  const double runs = static_cast<double>(workload.deployments().size());
  put("apps.fp_ops_per_run", ops / runs, "count");
  put("simmpi.messages_per_run", messages / runs, "count");
  put("simmpi.bytes_per_run", bytes / runs, "B");

  // ---- fsefi: instrumented-op throughput of fault-free serial runs -------
  double serial_ops = 0.0, serial_s = 0.0;
  for (const auto& [id, app] : apps) {
    std::uint64_t app_ops = 0;
    serial_s += median_seconds(reps, [&, &app = app] {
      app_ops = total_ops(res::harness::run_app_once(*app, 1, {}).profiles);
    });
    serial_ops += static_cast<double>(app_ops);
  }
  put("fsefi.ops_per_s", serial_ops / serial_s, "1/s");

  // ---- simmpi: job launch and the p-rank / 1-rank cost of one CG run -----
  for (int p : {8, 64}) {
    const double s = median_seconds(launch_reps, [p] {
      (void)res::simmpi::Runtime::run(p, [](res::simmpi::Comm&) {});
    });
    put("simmpi.launch_ms.r" + std::to_string(p), s * 1e3, "ms");
  }
  const auto cg = res::apps::make_app(AppId::CG);
  auto cg_run = [&](int p) {
    return median_seconds(reps, [&] { (void)res::harness::run_app_once(*cg, p, {}); });
  };
  const double cg_serial = cg_run(1);
  put("simmpi.overhead_ratio.r4", cg_run(4) / cg_serial, "ratio");
  put("simmpi.overhead_ratio.r64", cg_run(64) / cg_serial, "ratio");

  // ---- harness: golden-store put and load of every deployment ------------
  const std::string store_dir = work_dir + "/probe-store";
  std::filesystem::remove_all(store_dir);
  double put_s = 0.0, load_s = 0.0, store_bytes = 0.0;
  for (const Deployment& d : workload.deployments()) {
    const auto& app = *apps[d.app];
    const res::harness::GoldenRun golden = res::harness::profile_app(app, d.nranks);
    res::harness::GoldenStore store(store_dir);
    put_s += median_seconds(1, [&] { store.put(app, d.nranks, golden); });
    load_s += median_seconds(1, [&] {
      res::harness::GoldenStore reader(store_dir);
      if (!reader.load(app, d.nranks)) throw std::runtime_error("golden store miss");
    });
    store_bytes +=
        static_cast<double>(std::filesystem::file_size(store.path_for(app, d.nranks)));
  }
  put("harness.golden_store.put_ms", put_s * 1e3 / runs, "ms");
  put("harness.golden_store.load_ms", load_s * 1e3 / runs, "ms");
  put("harness.golden_store.bytes", store_bytes, "B");

  // ---- shard: codecs of one result frame of this workload's trials -------
  res::harness::DeploymentConfig cfg = workload.probe_config();
  const auto probe_app = res::apps::make_app(workload.deployments().front().app);
  res::harness::GoldenStore store(store_dir);
  const auto golden = store.load(*probe_app, cfg.nranks);
  if (!golden) throw std::runtime_error("probe golden missing from the store");
  res::shard::ResultMsg result;
  {
    const res::harness::TrialSpace space(*probe_app, cfg, *golden);
    for (std::uint64_t i = 0; i < 16; ++i) {
      result.outcomes.push_back(space.run({res::harness::kNoStratum, i, i}));
    }
  }
  result.id = 1;
  result.wall_seconds = sample_pass.serial_equiv_s;
  result.metrics = sample_pass.metrics;
  const res::shard::Message message = std::move(result);
  const auto wire = res::shard::wire_format_from_runtime();
  std::vector<std::byte> frame;
  const double encode_s = median_seconds(1, [&] {
    for (int r = 0; r < codec_reps; ++r) {
      frame = res::shard::encode_message(message, wire);
    }
  });
  const double decode_s = median_seconds(1, [&] {
    for (int r = 0; r < codec_reps; ++r) {
      (void)res::shard::decode_message(frame, wire);
    }
  });
  put("shard.frame_encode_us", encode_s * 1e6 / codec_reps, "us");
  put("shard.frame_decode_us", decode_s * 1e6 / codec_reps, "us");
  put("shard.frame_bytes", static_cast<double>(frame.size()), "B");

  // ---- shard: one-worker campaign minus the same campaign in-process -----
  // Both sides run one executor worker and read the golden run from the
  // probe store, so the difference is spawn, handshake and frame traffic.
  cfg.max_workers = 1;
  res::harness::GoldenCache cache(&store);
  res::harness::CampaignContext ctx;
  ctx.golden_cache = &cache;
  const double in_process = median_seconds(1, [&] {
    (void)res::harness::CampaignRunner::run(*probe_app, cfg, ctx);
  });
  res::shard::ShardOptions one_shard;
  one_shard.shards = 1;
  one_shard.golden_store_dir = store_dir;
  const double sharded = median_seconds(1, [&] {
    (void)res::shard::run_sharded_campaign(*probe_app, cfg, one_shard);
  });
  put("shard.dispatch_overhead_s", sharded - in_process, "s");

  // ---- core: the predictor on the last pass's study inputs ---------------
  put("core.predictor_us", workload.predictor_us(), "us");
}

}  // namespace perfbench
