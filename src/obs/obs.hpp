// Runtime observability for the measurement pipeline: phase timers, named
// counters/gauges, and exporters.
//
// A Metrics registry is threaded through the hot paths as a raw pointer
// (PipelineConfig::metrics); nullptr means "off" and every instrumented
// site reduces to a single pointer test, so the disabled path costs
// effectively nothing.  When enabled:
//
//   * ScopedPhase records monotonic-clock wall time + invocation counts
//     per named phase, and captures each interval as a trace span.  The
//     trace keeps the first kMaxTraceSpans spans, so a registry in a
//     long-lived daemon stays bounded; later intervals still fold into the
//     phase totals and are counted in `obs.trace_spans_dropped`.
//   * Counters are process-wide atomics.  They come in two groups with
//     different determinism guarantees (DESIGN.md §11):
//       - counter():       work actually performed (records ingested,
//                          tracks built, correlator cells evaluated...).
//                          Totals are *bit-identical at any thread count*
//                          because every increment corresponds to a unit of
//                          work whose count is a pure function of the input
//                          and integer addition commutes.
//       - sched_counter(): how the work was executed (parallel sections,
//                          pool chunks).  These legitimately vary with
//                          num_threads and are excluded from the
//                          determinism contract, like all timings.
//   * snapshot() freezes everything into a MetricsReport with flat
//     JSON/CSV exporters; trace_json() emits a Chrome trace_event JSON
//     timeline loadable in about:tracing / Perfetto.
//
// Thread-safety: counter handles may be bumped concurrently from workers
// (relaxed atomics); registry lookups, phase recording and snapshots take
// an internal mutex.  Handles returned by counter() stay valid for the
// registry's lifetime (map nodes are stable).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cosmicdance::obs {

/// Trace spans a registry keeps (the first ones recorded).
inline constexpr std::size_t kMaxTraceSpans = 65536;

/// Wall-time totals for one named phase (monotonic clock).
struct PhaseStats {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
};

/// One completed phase interval, for the trace timeline.
struct TraceSpan {
  std::string name;
  std::uint64_t begin_us = 0;     ///< offset from the registry's clock origin
  std::uint64_t duration_us = 0;
  std::uint32_t tid = 0;          ///< registry-assigned small thread id
};

/// Immutable snapshot of a Metrics registry (see Metrics::snapshot).
struct MetricsReport {
  /// Work counters: bit-identical at any thread count.
  std::map<std::string, std::uint64_t> counters;
  /// Execution-shape counters (exec sections/chunks): thread-count
  /// dependent, excluded from the determinism contract.
  std::map<std::string, std::uint64_t> scheduling;
  std::map<std::string, double> gauges;
  std::map<std::string, PhaseStats> phases;

  /// Flat JSON dump: {"counters": {...}, "scheduling": {...},
  /// "gauges": {...}, "phases": {"name": {"calls": n, "wall_ms": x}}}.
  [[nodiscard]] std::string to_json() const;

  /// CSV-ready rows: header (kind, name, value), then one row per counter,
  /// scheduling counter, gauge, and two per phase (calls + wall_ms).
  [[nodiscard]] std::vector<std::vector<std::string>> metric_rows() const;
};

/// A registry-owned monotone counter; add() is safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// The registry.  One per observed run; not copyable (atomics + mutex).
class Metrics {
 public:
  Metrics();
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Deterministic work counter (created on first use).
  [[nodiscard]] Counter& counter(const std::string& name);
  /// Scheduling counter: thread-count dependent, reported separately.
  [[nodiscard]] Counter& sched_counter(const std::string& name);

  /// Last-writer-wins named value (thread counts, dataset sizes...).
  void set_gauge(const std::string& name, double value);

  /// Fold one completed interval into the named phase and capture it as a
  /// trace span, while fewer than kMaxTraceSpans are held; past that the
  /// span is dropped and counted in the scheduling counter
  /// `obs.trace_spans_dropped`.  Called by ScopedPhase; callable directly
  /// for externally timed intervals.
  void record_phase(const std::string& name,
                    std::chrono::steady_clock::time_point begin,
                    std::chrono::steady_clock::time_point end);

  [[nodiscard]] MetricsReport snapshot() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): one complete ("X")
  /// event per recorded phase interval, timestamps relative to registry
  /// construction.  Viewable in about:tracing / Perfetto.
  [[nodiscard]] std::string trace_json() const;

 private:
  std::uint32_t tid_for_current_thread_locked();

  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point origin_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Counter> sched_counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, PhaseStats> phases_;
  std::vector<TraceSpan> spans_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
};

/// RAII phase timer: times construction-to-destruction and records it under
/// `name`.  A nullptr registry makes it a complete no-op.
class ScopedPhase {
 public:
  ScopedPhase(Metrics* metrics, const char* name) : metrics_(metrics) {
    if (metrics_ != nullptr) {
      name_ = name;
      begin_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedPhase() {
    if (metrics_ != nullptr) {
      metrics_->record_phase(name_, begin_, std::chrono::steady_clock::now());
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Metrics* metrics_;
  std::string name_;
  std::chrono::steady_clock::time_point begin_{};
};

/// Hoist a counter handle out of a hot loop: one registry lookup up front,
/// then bump() per unit of work (a no-op on the disabled path).
[[nodiscard]] inline Counter* counter_or_null(Metrics* metrics,
                                              const std::string& name) {
  return metrics != nullptr ? &metrics->counter(name) : nullptr;
}

inline void bump(Counter* counter, std::uint64_t n = 1) noexcept {
  if (counter != nullptr) counter->add(n);
}

}  // namespace cosmicdance::obs
