// Pluggable trace sinks and metrics serialization (DESIGN.md §10).
//
// All sinks are driven by the TraceSession under its lock — they need no
// synchronization of their own. Event/category/argument names are static
// strings, so sinks may store pointers without copying.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace resilience::telemetry {

/// Collects events in memory — the sink the test suites inspect.
class MemorySink : public TraceSink {
 public:
  void consume(const TraceEvent& event) override { events_.push_back(event); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

 private:
  std::vector<TraceEvent> events_;
};

/// Streams one JSON object per line (JSON Lines). Line schema:
///   {"cat": "...", "name": "...", "ph": "B|E|i", "tid": N, "ts_ns": N
///    [, "<arg_name>": N]}
/// Events are written as they arrive, so a trace of a crashed run is
/// still readable up to the crash.
class JsonLinesSink : public TraceSink {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonLinesSink(const std::string& path);
  ~JsonLinesSink() override;

  void consume(const TraceEvent& event) override;
  void flush() override;

 private:
  std::FILE* file_;
};

/// Buffers events and writes one Chrome trace_event document at flush:
///   {"traceEvents": [{"cat","name","ph","pid","tid","ts",...}, ...]}
/// Load the file in chrome://tracing or https://ui.perfetto.dev.
/// Timestamps are microseconds (the trace_event unit), as doubles to keep
/// sub-microsecond ordering.
class ChromeTraceSink : public TraceSink {
 public:
  explicit ChromeTraceSink(std::string path) : path_(std::move(path)) {}

  void consume(const TraceEvent& event) override { events_.push_back(event); }
  void flush() override;

 private:
  std::string path_;
  std::vector<TraceEvent> events_;
};

/// The metrics dump the CLI writes for --metrics:
///   {"schema": "resilience-metrics/1",
///    "counters": {"simmpi.jobs": N, ...},          // non-zero only
///    "histograms": {"harness.trial_ops":
///        {"buckets": [...], "total": N}, ...}}     // non-empty only
[[nodiscard]] util::Json metrics_to_json(const MetricsSnapshot& snapshot);

}  // namespace resilience::telemetry
