#include "obs/obs.hpp"

#include <cmath>
#include <cstdio>

#include "common/json.hpp"

namespace cosmicdance::obs {
namespace {

/// Fixed-precision milliseconds (microsecond resolution) for readability.
std::string json_ms(double ms) {
  if (!std::isfinite(ms)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

void append_count_object(std::string& out, const char* key,
                         const std::map<std::string, std::uint64_t>& values) {
  out += "  \"";
  out += key;
  out += "\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escape_json(name) + "\": " + std::to_string(value);
  }
  out += values.empty() ? "}" : "\n  }";
}

}  // namespace

std::string MetricsReport::to_json() const {
  std::string out = "{\n";
  append_count_object(out, "counters", counters);
  out += ",\n";
  append_count_object(out, "scheduling", scheduling);
  out += ",\n  \"gauges\": {";
  bool first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escape_json(name) + "\": " + json_number(value);
  }
  out += gauges.empty() ? "}" : "\n  }";
  out += ",\n  \"phases\": {";
  first = true;
  for (const auto& [name, stats] : phases) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escape_json(name) +
           "\": {\"calls\": " + std::to_string(stats.calls) +
           ", \"wall_ms\": " + json_ms(stats.total_ms) + "}";
  }
  out += phases.empty() ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::vector<std::vector<std::string>> MetricsReport::metric_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(counters.size() + scheduling.size() + gauges.size() +
               2 * phases.size() + 1);
  rows.push_back({"kind", "name", "value"});
  for (const auto& [name, value] : counters) {
    rows.push_back({"counter", name, std::to_string(value)});
  }
  for (const auto& [name, value] : scheduling) {
    rows.push_back({"scheduling", name, std::to_string(value)});
  }
  for (const auto& [name, value] : gauges) {
    rows.push_back({"gauge", name, json_number(value)});
  }
  for (const auto& [name, stats] : phases) {
    rows.push_back({"phase_calls", name, std::to_string(stats.calls)});
    rows.push_back({"phase_wall_ms", name, json_ms(stats.total_ms)});
  }
  return rows;
}

Metrics::Metrics() : origin_(std::chrono::steady_clock::now()) {}

Counter& Metrics::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Counter& Metrics::sched_counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sched_counters_[name];
}

void Metrics::set_gauge(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

std::uint32_t Metrics::tid_for_current_thread_locked() {
  const auto id = std::this_thread::get_id();
  const auto it = thread_ids_.find(id);
  if (it != thread_ids_.end()) return it->second;
  const auto assigned = static_cast<std::uint32_t>(thread_ids_.size());
  thread_ids_.emplace(id, assigned);
  return assigned;
}

void Metrics::record_phase(const std::string& name,
                           std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::time_point end) {
  using std::chrono::duration;
  using std::chrono::duration_cast;
  using std::chrono::microseconds;
  const std::lock_guard<std::mutex> lock(mutex_);
  PhaseStats& stats = phases_[name];
  ++stats.calls;
  stats.total_ms += duration<double, std::milli>(end - begin).count();
  if (spans_.size() >= kMaxTraceSpans) {
    sched_counters_["obs.trace_spans_dropped"].add(1);
    return;
  }
  TraceSpan span;
  span.name = name;
  span.begin_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(
          0, duration_cast<microseconds>(begin - origin_).count()));
  span.duration_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0,
                             duration_cast<microseconds>(end - begin).count()));
  span.tid = tid_for_current_thread_locked();
  spans_.push_back(std::move(span));
}

MetricsReport Metrics::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsReport report;
  for (const auto& [name, counter] : counters_) {
    report.counters[name] = counter.value();
  }
  for (const auto& [name, counter] : sched_counters_) {
    report.scheduling[name] = counter.value();
  }
  report.gauges = gauges_;
  report.phases = phases_;
  return report;
}

std::string Metrics::trace_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"cosmicdance\"}}";
  for (const TraceSpan& span : spans_) {
    out += ",\n  {\"name\": \"" + escape_json(span.name) +
           "\", \"cat\": \"cosmicdance\", \"ph\": \"X\", \"ts\": " +
           std::to_string(span.begin_us) +
           ", \"dur\": " + std::to_string(span.duration_us) +
           ", \"pid\": 1, \"tid\": " + std::to_string(span.tid) + "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace cosmicdance::obs
