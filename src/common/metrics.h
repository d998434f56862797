// Unified metrics registry (DESIGN.md §10). One process-wide namespace of
// named instruments that every layer of the adaptive pipeline reports into:
//
//   Counter    monotonic event count (atomic add; relaxed)
//   Gauge      last-value measurement (atomic store; relaxed)
//
// Instruments are created on first use and live for the registry's
// lifetime, so hot paths cache the reference in a function-local static —
// that is exactly what the IE_METRIC_* macros below do.
//
// Snapshots are plain data: name-sorted counter/gauge values, with JSON
// export and a counter-exact DeltaSince() so a pipeline run can report
// "what this run added" against the process-wide registry
// (PipelineResult::metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace ie {

/// Monotonic event counter. All operations are relaxed atomics: counts are
/// exact once the writing threads quiesce (e.g. at snapshot points after a
/// join), and never torn.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge (detector distances/angles, queue depths, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of a registry (or a per-run delta of one). Plain
/// copyable data; lookups are O(log n) binary searches over the
/// name-sorted vectors.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;      // name-sorted

  uint64_t CounterOr(std::string_view name, uint64_t fallback = 0) const;
  double GaugeOr(std::string_view name, double fallback = 0.0) const;

  /// What happened between `start` and this snapshot, both taken from the
  /// same registry: counters subtract exactly; gauges keep their end
  /// value. Counters absent from `start` are passed through whole.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& start) const;

  /// Appends pretty-printed JSON: {"counters": {...}, "gauges": {...}}.
  /// `indent` is the number of leading spaces on the opening brace's line.
  void AppendJson(std::string* out, int indent = 0) const;
  std::string ToJson(int indent = 0) const;

  /// Appends Prometheus text exposition format (one `# TYPE` comment per
  /// metric, then its single sample). Metric names are prefixed `ie_`
  /// with non-[a-zA-Z0-9_] characters mapped to '_'. Validate with
  /// `tools/report.py --validate-prom`. Implemented in metrics_export.cc
  /// (export-path float formatting discipline).
  void AppendPrometheus(std::string* out) const;
  std::string ToPrometheus() const;
};

/// Thread-safe named-instrument registry. Get* returns a stable reference
/// (instruments are never destroyed before the registry), creating the
/// instrument on first use. Names should be static literals of the form
/// "layer.event" — they become JSON keys.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the IE_METRIC_* macros record into.
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name) EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name) EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
};

}  // namespace ie

// Recording macros. `name` must be a string literal (or other
// static-lifetime string): the instrument lookup happens once per call site
// via a function-local static, after which recording is one relaxed atomic
// operation.

#define IE_METRIC_COUNT_N(name, n)                             \
  do {                                                         \
    static ::ie::Counter& ie_metric_counter_ =                 \
        ::ie::MetricsRegistry::Global().GetCounter(name);      \
    ie_metric_counter_.Add(static_cast<uint64_t>(n));          \
  } while (0)

#define IE_METRIC_COUNT(name) IE_METRIC_COUNT_N(name, 1)

#define IE_METRIC_GAUGE_SET(name, v)                           \
  do {                                                         \
    static ::ie::Gauge& ie_metric_gauge_ =                     \
        ::ie::MetricsRegistry::Global().GetGauge(name);        \
    ie_metric_gauge_.Set(static_cast<double>(v));              \
  } while (0)
