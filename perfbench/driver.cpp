// perfbench driver: runs one benchmark workload closed-loop and prints its
// metrics. Usually started through run.py, which builds this binary first.
//
//   perfbench_driver --workload predict-64|serial-sweep|adaptive-sharded
//                    --seed N --seconds S --trace 0|1
//                    [--tiny] [--work-dir DIR] [--git-rev REV]
//
// A run sets up the workload several times (the set-up time is the median),
// computes its reference outputs, then repeats closed-loop passes for about
// --seconds. With --trace 0 it reports the end-to-end metrics
// of those passes; with --trace 1 it alternates untraced and traced passes
// and reports the per-layer metrics, including the layer probes. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "shard/worker.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void TraceStats::consume(const res::telemetry::TraceEvent& event) {
  ++events;
  if (std::strcmp(event.category, "harness") != 0 ||
      std::strcmp(event.name, "trial") != 0) {
    return;
  }
  auto& open = open_[event.tid];
  using Type = res::telemetry::TraceEvent::Type;
  if (event.type == Type::SpanBegin) {
    open.push_back(event.ts_ns);
  } else if (event.type == Type::SpanEnd && !open.empty()) {
    trial_ms.push_back(static_cast<double>(event.ts_ns - open.back()) / 1e6);
    open.pop_back();
  }
}

namespace {

using res::telemetry::Counter;

/// Nearest-rank percentile, q in [0, 1] (0 for an empty list).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Stable 64-bit FNV-1a hash, printed so runs can be compared by eye.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
  std::string git_rev = "unknown";
};

/// Parse the command line; throws std::invalid_argument on bad input.
Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "need --workload, --seed, --seconds (> 0) and --trace");
  }
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_build/perfbench-work-" + std::to_string(::getpid());
  }
  return args;
}

double load_average() {
  double load[1] = {0.0};
  return ::getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// Peak RSS of this process plus the largest reaped child (the shard
/// workers), in MB.
double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The first line where two multi-line texts differ, for check messages.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return "";
    if (!more_a || !more_b || la != lb) {
      return "\n  got:      " + la.substr(0, 2000) +
             "\n  expected: " + lb.substr(0, 2000);
    }
  }
}

/// Names of the logical counters and histograms where `a` and `b` differ.
std::string logical_diff(const res::telemetry::MetricsSnapshot& a,
                         const res::telemetry::MetricsSnapshot& b) {
  std::string names;
  for (std::size_t i = 0; i < res::telemetry::kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    if (res::telemetry::is_logical(c) && a.value(c) != b.value(c)) {
      names += std::string(" ") + res::telemetry::name(c);
    }
  }
  for (std::size_t i = 0; i < res::telemetry::kHistogramCount; ++i) {
    const auto h = static_cast<res::telemetry::Histogram>(i);
    if (!(a.histogram(h) == b.histogram(h))) {
      names += std::string(" ") + res::telemetry::name(h);
    }
  }
  return names;
}

/// The work a pass did: its logical counters and trial-ops histogram. The
/// contaminated-ranks histogram is left out, since an aborted job's
/// contamination count depends on the schedule.
bool same_work(const res::telemetry::MetricsSnapshot& a,
               const res::telemetry::MetricsSnapshot& b) {
  for (std::size_t i = 0; i < res::telemetry::kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    if (res::telemetry::is_logical(c) && a.value(c) != b.value(c)) return false;
  }
  const auto ops = res::telemetry::Histogram::HarnessTrialOps;
  return a.histogram(ops) == b.histogram(ops);
}

/// Lower edge of the log2 bucket holding the median observation.
double histogram_p50(const res::telemetry::HistogramData& h) {
  const std::uint64_t total = h.total();
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    seen += h.buckets[b];
    if (total > 0 && 2 * seen >= total) {
      return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    }
  }
  return 0.0;
}

struct Totals {
  double wall_s = 0.0;
  double serial_equiv_s = 0.0;
  double trials = 0.0;
  double requested = 0.0;
  double core_serial_s = 0.0, core_small_s = 0.0, core_large_s = 0.0;
  res::telemetry::MetricsSnapshot metrics;
  std::vector<double> walls;
};

Totals sum(const std::vector<PassResult>& passes) {
  Totals t;
  for (const PassResult& p : passes) {
    t.wall_s += p.wall_s;
    t.serial_equiv_s += p.serial_equiv_s;
    t.trials += static_cast<double>(p.trials);
    t.requested += static_cast<double>(p.requested);
    t.core_serial_s += p.core_serial_s;
    t.core_small_s += p.core_small_s;
    t.core_large_s += p.core_large_s;
    t.metrics.add(p.metrics);
    t.walls.push_back(p.wall_s);
  }
  return t;
}

/// Per-layer metrics read from the counters of the untraced passes.
void counter_metrics(const Workload& workload, const Totals& t,
                     std::size_t passes, MetricTable& out) {
  const auto& m = t.metrics;
  auto c = [&m](Counter counter) {
    return static_cast<double>(m.value(counter));
  };
  auto put = [&out](const std::string& name, double value, const char* unit) {
    out[name] = {value, unit};
  };
  const double trials = t.trials;
  const double n = static_cast<double>(passes);

  put("fsefi.trial_ops_p50",
      histogram_p50(m.histogram(res::telemetry::Histogram::HarnessTrialOps)),
      "count");
  put("fsefi.countdown_refills_per_trial",
      ratio(c(Counter::FsefiCountdownRefills), trials), "count");
  put("fsefi.injections_per_trial", ratio(c(Counter::FsefiInjections), trials),
      "count");
  put("fsefi.payload_flips_per_trial",
      ratio(c(Counter::ScenarioPayloadFlips), trials), "count");

  put("simmpi.fused_collectives_per_trial",
      ratio(c(Counter::SimmpiFusedCollectives), trials), "count");
  put("simmpi.mailbox_waits_per_trial",
      ratio(c(Counter::SimmpiMailboxWaits), trials), "count");
  put("simmpi.buffer_reuse_ratio",
      ratio(c(Counter::SimmpiBufferReuses),
            c(Counter::SimmpiBufferReuses) + c(Counter::SimmpiBufferAllocs)),
      "ratio");

  put("harness.golden_cache_hit_ratio",
      ratio(c(Counter::HarnessGoldenHits),
            c(Counter::HarnessGoldenHits) + c(Counter::HarnessGoldenMisses)),
      "ratio");
  put("harness.restore_ratio", ratio(c(Counter::HarnessCheckpointRestores), trials),
      "ratio");
  put("harness.early_exit_ratio", ratio(c(Counter::HarnessEarlyExits), trials),
      "ratio");
  put("harness.abort_ratio",
      ratio(c(Counter::HarnessHangAborts) + c(Counter::HarnessDeadlockAborts),
            trials),
      "ratio");
  put("harness.adaptive.trial_reduction", ratio(t.requested, trials), "ratio");
  put("harness.golden_store.hit_ratio",
      ratio(c(Counter::GoldenStoreHits),
            c(Counter::GoldenStoreHits) + c(Counter::GoldenStoreMisses)),
      "ratio");

  // Serial-equivalent seconds over wall time: the executor's parallelism
  // for in-process workloads, the shards' for the sharded one.
  const double parallelism = ratio(t.serial_equiv_s, t.wall_s);
  put("harness.executor_parallelism", workload.sharded() ? 0.0 : parallelism,
      "ratio");
  put("shard.parallelism", workload.sharded() ? parallelism : 0.0, "ratio");
  put("shard.units_dispatched", c(Counter::ShardUnitsDispatched) / n, "count");
  put("shard.worker_restarts", c(Counter::ShardWorkerRestarts), "count");

  put("core.serial_injection_s", t.core_serial_s / n, "s");
  put("core.small_injection_s", t.core_small_s / n, "s");
  put("core.large_injection_s", t.core_large_s / n, "s");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

int run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double load_before = load_average();
  std::filesystem::create_directories(args.work_dir);

  auto workload = make_workload(args.workload, args.seed, args.tiny, args.work_dir);
  if (!workload) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  std::cout << "perfbench workload: " << workload->name() << " seed "
            << args.seed << "\n"
            << "perfbench inputs: " << workload->inputs() << "\n";

  // ---- set-up, several times: report the median ---------------------------
  // Repeating for two seconds keeps the median off the first, slower
  // repetitions of a process that has just started on a cold machine.
  std::vector<double> setup_s, fill_s;
  const auto setup_start = Clock::now();
  const std::size_t min_setups = args.tiny ? 1 : 3;
  const double setup_window_s = args.tiny ? 0.0 : 2.0;
  while (setup_s.size() < min_setups ||
         (setup_s.size() < 200 && seconds_since(setup_start) < setup_window_s)) {
    const SetupResult s = workload->setup();
    setup_s.push_back(s.total_s);
    fill_s.push_back(s.golden_fill_s);
  }

  // ---- reference outputs, outside the timed phase ------------------------
  Checks checks;
  const Reference ref = workload->reference();

  // ---- timed phase: closed-loop passes -----------------------------------
  // Passes repeat while another one would end nearer to --seconds than
  // stopping now, and until there are two. Two passes that disagree by
  // more than 10% get a third, so the median outvotes a pass slowed by a
  // transient stall of the host (the multi-worker scheduler default is
  // sensitive to those).
  std::vector<PassResult> plain, traced;
  auto sink = std::make_shared<TraceStats>();
  const auto timed_start = Clock::now();
  double round_s = 0.0;
  auto want_more = [&] {
    if (plain.size() < 2) return true;
    if (plain.size() == 2) {
      const auto [lo, hi] = std::minmax(plain[0].wall_s, plain[1].wall_s);
      if (hi > 1.1 * lo) return true;
    }
    return seconds_since(timed_start) + round_s / 2.0 < args.seconds;
  };
  do {
    const auto round_start = Clock::now();
    plain.push_back(workload->run_pass(checks));
    if (args.trace) {
      res::telemetry::TraceSession::start(sink);
      traced.push_back(workload->run_pass(checks));
      res::telemetry::TraceSession::stop();
    }
    round_s = seconds_since(round_start);
  } while (want_more());

  // Every pass of one seed produces the same outputs and does the same
  // work, traced or not.
  const PassResult& first = plain.front();
  const std::string& expected = ref.digest.empty() ? first.digest : ref.digest;
  std::vector<const PassResult*> all;
  for (const auto& p : plain) all.push_back(&p);
  for (const auto& p : traced) all.push_back(&p);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const PassResult& p = *all[i];
    if (!ref.digest.empty() || i > 0) {
      checks.expect(p.digest == expected,
                    "pass " + std::to_string(i) + " outputs equal the reference" +
                        first_difference(p.digest, expected));
    }
    if (ref.metrics) {
      checks.expect(p.metrics.logical_equal(*ref.metrics),
                    "pass " + std::to_string(i) +
                        " logical counters equal the reference; differ:" +
                        logical_diff(p.metrics, *ref.metrics));
    }
    if (i > 0) {
      checks.expect(same_work(p.metrics, first.metrics),
                    "pass " + std::to_string(i) +
                        " did the same work as the first pass; differ:" +
                        logical_diff(p.metrics, first.metrics));
    }
  }

  const Totals untraced = sum(plain);
  MetricTable metrics;
  if (!args.trace) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["wall_s"] = {median(untraced.walls), "s"};
    // Every pass of one seed runs the same trials, so throughput is the
    // trials of a pass over the median pass time.
    metrics["trials_per_s"] = {ratio(static_cast<double>(first.trials),
                                     median(untraced.walls)),
                               "1/s"};
    metrics["trials_to_ci"] = {static_cast<double>(first.trials), "count"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    counter_metrics(*workload, untraced, plain.size(), metrics);
    metrics["harness.golden_fill_s"] = {median(fill_s), "s"};
    metrics["harness.trial_ms.p50"] = {percentile(sink->trial_ms, 0.50), "ms"};
    metrics["harness.trial_ms.p99"] = {percentile(sink->trial_ms, 0.99), "ms"};
    metrics["harness.trial_ms.samples"] = {
        static_cast<double>(sink->trial_ms.size()), "count"};
    metrics["telemetry.trace_overhead"] = {
        ratio(median(sum(traced).walls), median(untraced.walls)), "ratio"};
    metrics["telemetry.trace_events"] = {
        static_cast<double>(sink->events) / static_cast<double>(traced.size()),
        "count"};
    run_probes(*workload, plain.back(), args.work_dir, args.tiny, metrics);
  }

  // ---- stamp: where and how this run was taken ----------------------------
  const double load_after = load_average();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "perfbench stamp: nproc=" << nproc << " load_before=" << load_before
            << " load_after=" << load_after << " build_type=" << build_type
            << " compiler=\"" << PERFBENCH_COMPILER << "\" git_rev=" << args.git_rev
            << "\n";
  if (build_type == "Debug" || build_type.empty()) {
    std::cout << "perfbench WARNING: unoptimized build (" << build_type
              << "); timings are not comparable\n";
  }
  // The load after the run includes the run itself (the sharded workload
  // alone keeps more threads than cores busy), so only the load found on
  // arrival flags contention.
  if (load_before > nproc) {
    std::cout << "perfbench WARNING: load average above nproc (" << nproc
              << ") before the run; timings are contended\n";
  }
  std::cout << "perfbench passes: " << plain.size() << " untraced, "
            << traced.size() << " traced; outputs " << std::hex
            << fnv1a(expected) << std::dec << "; trials per pass "
            << first.trials << "; pass seconds";
  for (const PassResult& p : plain) std::cout << ' ' << p.wall_s;
  std::cout << "\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << name << " = " << json_number(metric.value) << " "
              << metric.unit << "\n";
  }

  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);

  bool finite = true;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      finite = false;
    }
  }
  const bool correct = checks.failed == 0 && checks.attempted > 0 && finite;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    line << sep << "\"" << name << "\": {\"value\": " << json_number(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
    sep = ", ";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  // Shard workers are this binary re-executed with --shard-worker=<fd>.
  if (const int rc = resilience::shard::maybe_worker_main(argc, argv); rc >= 0) {
    return rc;
  }
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
