// Shared pieces of the perfbench driver: timing helpers, the metric table
// a run prints, output checks, and the interface the three paper
// workloads implement (workloads.cpp). The driver (driver.cpp) runs a
// workload closed-loop — one study or campaign at a time on one thread —
// and the layer probes (probes.cpp) time single public calls into each
// library layer in the traced run only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "harness/campaign.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace res = resilience;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);

/// One reported metric: its value as measured and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricTable = std::map<std::string, Metric>;

/// Output checks. Every check is one attempted operation; a failed one is
/// counted and described on stderr, never thrown.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what);
};

/// Trace sink of the traced passes: counts every event and pairs each
/// thread's harness/trial span begin and end into a trial duration.
class TraceStats final : public res::telemetry::TraceSink {
 public:
  void consume(const res::telemetry::TraceEvent& event) override;

  std::uint64_t events = 0;
  std::vector<double> trial_ms;

 private:
  std::map<std::uint32_t, std::vector<std::uint64_t>> open_;  ///< by tid
};

/// One (app, rank count) deployment a workload profiles and runs trials on.
struct Deployment {
  res::apps::AppId app = res::apps::AppId::CG;
  int nranks = 1;
};

/// What one closed-loop pass of a workload did.
struct PassResult {
  double wall_s = 0.0;            ///< external wall time of the pass
  double serial_equiv_s = 0.0;    ///< sum of the campaigns' wall_seconds
  std::uint64_t trials = 0;       ///< injected trials executed
  std::uint64_t requested = 0;    ///< trials requested (adaptive: the caps)
  res::telemetry::MetricsSnapshot metrics;  ///< every campaign's counters
  /// Canonical text of the pass's outputs; equal across passes of one seed.
  std::string digest;
  /// Study phases (predict-64 only): StudyResult's injection seconds.
  double core_serial_s = 0.0;
  double core_small_s = 0.0;
  double core_large_s = 0.0;
};

/// What a workload's outputs are checked against, computed outside the
/// timed phase. `metrics` is compared with logical_equal when set.
struct Reference {
  std::string digest;
  std::optional<res::telemetry::MetricsSnapshot> metrics;
};

struct SetupResult {
  double total_s = 0.0;        ///< the whole set-up phase
  double golden_fill_s = 0.0;  ///< its golden pre-pass / store fill part
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// The inputs generated from the seed, one line of text.
  [[nodiscard]] virtual std::string inputs() const = 0;
  /// Every deployment the workload's trials run on.
  [[nodiscard]] virtual std::vector<Deployment> deployments() const = 0;
  /// True when trials run in shard worker processes.
  [[nodiscard]] virtual bool sharded() const { return false; }

  /// One set-up: golden pre-pass or store fill, plus shard-worker
  /// start-up. The state of the last call is what the passes use.
  virtual SetupResult setup() = 0;
  /// Reference outputs, computed outside the timed phase. A workload
  /// without one returns an empty digest: passes are then checked against
  /// the first pass.
  virtual Reference reference() { return {}; }
  /// One closed-loop pass; records its output checks.
  virtual PassResult run_pass(Checks& checks) = 0;

  /// The deployment the shard-frame and dispatch-overhead probes use.
  [[nodiscard]] virtual res::harness::DeploymentConfig probe_config() const = 0;
  /// ResiliencePredictor time on the last pass's study inputs, in
  /// microseconds per prediction (0 for workloads without studies).
  [[nodiscard]] virtual double predictor_us() const { return 0.0; }
};

/// Build a workload by name ("predict-64", "serial-sweep",
/// "adaptive-sharded"); null for an unknown name. `tiny` shrinks every
/// size for the smoke test. `work_dir` is a private scratch directory.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        const std::string& work_dir);

/// Per-layer probes of the traced run: each times one public call into a
/// layer. `tiny` shrinks repetition counts.
void run_probes(const Workload& workload, const PassResult& sample_pass,
                const std::string& work_dir, bool tiny, MetricTable& out);

}  // namespace perfbench
