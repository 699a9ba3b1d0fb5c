#include "telemetry/sinks.hpp"

#include <cinttypes>
#include <stdexcept>

namespace resilience::telemetry {

namespace {

const char* phase_of(TraceEvent::Type type) {
  switch (type) {
    case TraceEvent::Type::SpanBegin:
      return "B";
    case TraceEvent::Type::SpanEnd:
      return "E";
    case TraceEvent::Type::Instant:
      return "i";
  }
  return "i";
}

}  // namespace

JsonLinesSink::JsonLinesSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
}

JsonLinesSink::~JsonLinesSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonLinesSink::consume(const TraceEvent& event) {
  // Names are static identifier-style strings — no escaping needed.
  std::fprintf(file_,
               "{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\",\"tid\":%" PRIu32
               ",\"ts_ns\":%" PRIu64,
               event.category, event.name, phase_of(event.type), event.tid,
               event.ts_ns);
  if (event.arg_name != nullptr) {
    std::fprintf(file_, ",\"%s\":%" PRIu64, event.arg_name, event.arg);
  }
  std::fputs("}\n", file_);
}

void JsonLinesSink::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void ChromeTraceSink::flush() {
  std::FILE* file = std::fopen(path_.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot open trace file: " + path_);
  }
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const TraceEvent& event : events_) {
    std::fprintf(file,
                 "%s\n{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\","
                 "\"pid\":1,\"tid\":%" PRIu32 ",\"ts\":%.3f",
                 first ? "" : ",", event.category, event.name,
                 phase_of(event.type), event.tid,
                 static_cast<double>(event.ts_ns) / 1000.0);
    if (event.type == TraceEvent::Type::Instant) {
      std::fputs(",\"s\":\"t\"", file);  // thread-scoped instant
    }
    if (event.arg_name != nullptr) {
      std::fprintf(file, ",\"args\":{\"%s\":%" PRIu64 "}", event.arg_name,
                   event.arg);
    }
    std::fputs("}", file);
    first = false;
  }
  std::fputs("\n]}\n", file);
  std::fclose(file);
}

util::Json metrics_to_json(const MetricsSnapshot& snapshot) {
  util::JsonObject counters;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (snapshot.counters[i] != 0) {
      counters[name(static_cast<Counter>(i))] = snapshot.counters[i];
    }
  }
  util::JsonObject histograms;
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const HistogramData& data = snapshot.histograms[i];
    const std::uint64_t total = data.total();
    if (total == 0) continue;
    util::JsonArray buckets;
    buckets.reserve(kHistogramBuckets);
    for (auto b : data.buckets) buckets.emplace_back(b);
    histograms[name(static_cast<Histogram>(i))] = util::JsonObject{
        {"buckets", std::move(buckets)}, {"total", total}};
  }
  return util::JsonObject{{"schema", "resilience-metrics/1"},
                          {"counters", std::move(counters)},
                          {"histograms", std::move(histograms)}};
}

}  // namespace resilience::telemetry
