// Unified metrics registry (DESIGN.md §10). One process-wide namespace of
// named instruments that every layer of the adaptive pipeline reports into:
//
//   Counter    monotonic event count (atomic add; relaxed)
//   Gauge      last-value measurement (atomic store; relaxed)
//   Histogram  fixed-bucket latency/value distribution; recording goes to a
//              lock-free per-thread shard (single-writer, atomic
//              publication) and shards are merged on Snapshot() into bucket
//              counts plus a RunningStats summary (common/stats.h)
//
// Instruments are created on first use and live for the registry's
// lifetime, so hot paths cache the reference in a function-local static —
// that is exactly what the IE_METRIC_* macros below do. The macros compile
// to nothing when IE_OBSERVABILITY is 0 (CMake -DIE_ENABLE_OBSERVABILITY=OFF),
// making the instrumentation free in stripped builds.
//
// Snapshots are plain data: name-sorted counter/gauge values and merged
// histograms, with JSON export and a counter/bucket-exact DeltaSince() so a
// pipeline run can report "what this run added" against the process-wide
// registry (PipelineResult::metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/sync.h"

#ifndef IE_OBSERVABILITY
#define IE_OBSERVABILITY 1
#endif

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

/// Merged view of one histogram: bucket counts (counts[i] covers values
/// <= bounds[i]; the final slot is the overflow bucket) plus a RunningStats
/// summary reconstituted from the shard moments.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;    // ascending upper bounds
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries
  RunningStats summary;

  uint64_t TotalCount() const { return summary.count(); }

  /// Quantile estimate from the (shard-merged) bucket counts. The target
  /// rank is the nearest-rank ceil(q·N); the estimate interpolates inside
  /// the bucket holding that rank — log-linearly when the bucket's bounds
  /// are both positive (these histograms are log-bucketed, so constant
  /// relative error), linearly otherwise — and is clamped to the exact
  /// [min, max] from the summary. The result always lands in the same
  /// bucket as the exact sorted sample of that rank (tests compare the two
  /// against full sorts). Returns 0 when empty; q is clamped to [0, 1].
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }
};

/// Fixed-bucket histogram with lock-free per-thread shards. Each recording
/// thread owns one shard (registered once under a mutex, then cached
/// thread-locally), so Observe() is a handful of relaxed atomic
/// read-modify-writes with no contention; Snapshot() merges all shards.
/// A snapshot taken while recorders are mid-update may see a shard's
/// moments slightly out of sync with each other (never torn, never UB);
/// once writers quiesce the merged result is exact.
class Histogram {
 public:
  /// `bounds` must be strictly ascending; empty = DefaultLatencyBounds().
  explicit Histogram(std::vector<double> bounds);
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged shard view (without a name; the registry fills that in).
  HistogramSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  struct Shard;
  Shard* ThisThreadShard() EXCLUDES(mu_);

  const uint64_t id_;  // process-unique; keys the thread-local shard cache
  std::vector<double> bounds_;
  mutable Mutex mu_;  // guards shards_ registration only
  std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(mu_);
};

/// Exponential 1-2-5 upper bounds from 1µs to 10s — the default scale for
/// the latency histograms the pipeline records (seconds).
const std::vector<double>& DefaultLatencyBounds();

/// Point-in-time view of a registry (or a per-run delta of one). Plain
/// copyable data; lookups are O(log n) binary searches over the
/// name-sorted vectors.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;      // name-sorted
  std::vector<HistogramSnapshot> histograms;               // name-sorted

  uint64_t CounterOr(std::string_view name, uint64_t fallback = 0) const;
  double GaugeOr(std::string_view name, double fallback = 0.0) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// What happened between `start` and this snapshot, both taken from the
  /// same registry: counters and histogram bucket counts subtract exactly;
  /// histogram summaries invert RunningStats::Merge (count/mean/m2 exact up
  /// to float reassociation, min/max taken from the end snapshot since
  /// extrema are not subtractable); gauges keep their end value.
  /// Instruments absent from `start` are passed through whole.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& start) const;

  /// Appends pretty-printed JSON:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  ///    mean, stddev, min, max, p50, p90, p99,
  ///    buckets: [{le, count}, ...]}}}
  /// `indent` is the number of leading spaces on the opening brace's line.
  void AppendJson(std::string* out, int indent = 0) const;
  std::string ToJson(int indent = 0) const;

  /// Appends Prometheus text exposition format (one `# TYPE` comment per
  /// metric, then its samples): counters and gauges as single samples,
  /// histograms as cumulative `_bucket{le=...}` series plus `_sum` /
  /// `_count`, and `_p50`/`_p90`/`_p99` gauges from Quantile(). Metric
  /// names are prefixed `ie_` with non-[a-zA-Z0-9_] characters mapped to
  /// '_'. Validate with `tools/report.py --validate-prom`. Implemented in
  /// metrics_export.cc (export-path float formatting discipline).
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
  /// `bounds` applies only on first creation; empty = latency defaults.
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> bounds = {}) EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Snapshot() rendered as Prometheus text exposition (the scrape/export
  /// surface of the registry; see MetricsSnapshot::AppendPrometheus).
  std::string RenderPrometheus() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace ie

// Recording macros. `name` must be a string literal (or other
// static-lifetime string): the instrument lookup happens once per call site
// via a function-local static, after which recording is a few relaxed
// atomic operations. All of them expand to nothing when IE_OBSERVABILITY
// is 0, and arguments are not evaluated in that case.
#if IE_OBSERVABILITY

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

#define IE_METRIC_HIST_OBSERVE(name, v)                        \
  do {                                                         \
    static ::ie::Histogram& ie_metric_hist_ =                  \
        ::ie::MetricsRegistry::Global().GetHistogram(name);    \
    ie_metric_hist_.Observe(static_cast<double>(v));           \
  } while (0)

#else  // !IE_OBSERVABILITY

#define IE_METRIC_COUNT_N(name, n) do {} while (0)
#define IE_METRIC_COUNT(name) do {} while (0)
#define IE_METRIC_GAUGE_SET(name, v) do {} while (0)
#define IE_METRIC_HIST_OBSERVE(name, v) do {} while (0)

#endif  // IE_OBSERVABILITY
