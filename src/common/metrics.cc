// detlint: export-path — MetricsSnapshot::AppendJson emits machine-parsed
// JSON; floating values go through AppendJsonNumber (DESIGN.md §12).
#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"

namespace ie {

namespace {

/// Process-unique histogram ids key the thread-local shard cache, so a
/// histogram allocated at a recycled address (test-local registries) can
/// never inherit a stale shard pointer.
std::atomic<uint64_t> g_next_histogram_id{1};

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendDouble(std::string* out, double v) { AppendJsonNumber(out, v); }

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

}  // namespace

// ---- Histogram ----------------------------------------------------------

/// One thread's recording slot. Written by exactly one thread (relaxed
/// load+store read-modify-writes are therefore race-free) and read by
/// snapshotting threads with relaxed loads.
struct Histogram::Shard {
  explicit Shard(size_t slots) : bucket_counts(slots) {}

  std::vector<std::atomic<uint64_t>> bucket_counts;
  std::atomic<uint64_t> count{0};
  std::atomic<double> mean{0.0};
  std::atomic<double> m2{0.0};
  std::atomic<double> min{0.0};  // valid only when count > 0
  std::atomic<double> max{0.0};
};

Histogram::Histogram(std::vector<double> bounds)
    : id_(g_next_histogram_id.fetch_add(1, std::memory_order_relaxed)),
      bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    IE_CHECK(bounds_[i - 1] < bounds_[i]) << "histogram bounds not ascending";
  }
}

Histogram::~Histogram() = default;

Histogram::Shard* Histogram::ThisThreadShard() {
  // Shard cache: histogram id -> this thread's shard. Stale entries from
  // destroyed histograms are keyed by retired ids and never looked up
  // again, so the dangling pointers are harmless.
  thread_local std::unordered_map<uint64_t, Shard*> cache;
  auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  MutexLock lock(mu_);
  shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  Shard* shard = shards_.back().get();
  cache.emplace(id_, shard);
  return shard;
}

void Histogram::Observe(double value) {
  Shard* shard = ThisThreadShard();
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // Single-writer shard: plain load+store read-modify-writes, published
  // with relaxed atomics so concurrent snapshots read untorn values.
  auto bump = [](std::atomic<uint64_t>& a) {
    a.store(a.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  };
  const uint64_t n = shard->count.load(std::memory_order_relaxed) + 1;
  const double old_mean = shard->mean.load(std::memory_order_relaxed);
  const double delta = value - old_mean;
  const double new_mean = old_mean + delta / static_cast<double>(n);
  shard->mean.store(new_mean, std::memory_order_relaxed);
  shard->m2.store(shard->m2.load(std::memory_order_relaxed) +
                      delta * (value - new_mean),
                  std::memory_order_relaxed);
  if (n == 1) {
    shard->min.store(value, std::memory_order_relaxed);
    shard->max.store(value, std::memory_order_relaxed);
  } else {
    if (value < shard->min.load(std::memory_order_relaxed)) {
      shard->min.store(value, std::memory_order_relaxed);
    }
    if (value > shard->max.load(std::memory_order_relaxed)) {
      shard->max.store(value, std::memory_order_relaxed);
    }
  }
  bump(shard->bucket_counts[bucket]);
  shard->count.store(n, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.assign(bounds_.size() + 1, 0);
  MutexLock lock(mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const uint64_t n = shard->count.load(std::memory_order_relaxed);
    for (size_t i = 0; i < snapshot.counts.size(); ++i) {
      snapshot.counts[i] +=
          shard->bucket_counts[i].load(std::memory_order_relaxed);
    }
    snapshot.summary.Merge(RunningStats::FromMoments(
        static_cast<size_t>(n), shard->mean.load(std::memory_order_relaxed),
        shard->m2.load(std::memory_order_relaxed),
        shard->min.load(std::memory_order_relaxed),
        shard->max.load(std::memory_order_relaxed)));
  }
  return snapshot;
}

const std::vector<double>& DefaultLatencyBounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-6; decade < 20.0; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    return b;
  }();
  return bounds;
}

double HistogramSnapshot::Quantile(double q) const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the k-th smallest sample, k = ceil(q·N), clamped to
  // [1, N] (q = 0 still needs a sample to land on).
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::clamp<uint64_t>(rank, 1, total);
  uint64_t cum = 0;
  size_t bucket = counts.size() - 1;
  for (size_t b = 0; b < counts.size(); ++b) {
    cum += counts[b];
    if (cum >= rank) {
      bucket = b;
      break;
    }
  }
  // The bucket's value range. Its interior edges are bucket bounds; the
  // outer edges (below the first bucket, above the last bound) are the
  // exact extrema from the summary, which also clamp the estimate so it
  // can never leave the rank's bucket.
  const double exact_min = summary.min();
  const double exact_max = summary.max();
  const double lo = bucket == 0 ? exact_min : bounds[bucket - 1];
  const double hi = bucket < bounds.size() ? bounds[bucket] : exact_max;
  const uint64_t in_bucket = counts[bucket];
  const uint64_t below = cum - in_bucket;
  const double frac =
      in_bucket == 0
          ? 1.0
          : static_cast<double>(rank - below) / static_cast<double>(in_bucket);
  double value;
  if (hi <= lo) {
    value = hi;
  } else if (lo > 0.0) {
    // Log-linear within the bucket: the default bounds are a geometric
    // (1-2-5) ladder, so this keeps relative (not absolute) resolution.
    value = lo * std::exp(std::log(hi / lo) * frac);
  } else {
    value = lo + (hi - lo) * frac;
  }
  return std::clamp(value, exact_min, exact_max);
}

// ---- MetricsSnapshot ----------------------------------------------------

namespace {

template <typename T>
const T* FindSorted(const std::vector<std::pair<std::string, T>>& entries,
                    std::string_view name) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const std::pair<std::string, T>& e, std::string_view n) {
        return e.first < n;
      });
  if (it == entries.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

uint64_t MetricsSnapshot::CounterOr(std::string_view name,
                                    uint64_t fallback) const {
  const uint64_t* v = FindSorted(counters, name);
  return v != nullptr ? *v : fallback;
}

double MetricsSnapshot::GaugeOr(std::string_view name,
                                double fallback) const {
  const double* v = FindSorted(gauges, name);
  return v != nullptr ? *v : fallback;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  auto it = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const HistogramSnapshot& h, std::string_view n) {
        return h.name < n;
      });
  if (it == histograms.end() || it->name != name) return nullptr;
  return &*it;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& start) const {
  MetricsSnapshot delta;
  delta.counters.reserve(counters.size());
  for (const auto& [name, end_value] : counters) {
    const uint64_t start_value = start.CounterOr(name, 0);
    delta.counters.emplace_back(
        name, end_value >= start_value ? end_value - start_value : 0);
  }
  delta.gauges = gauges;  // gauges are last-value: keep the end reading
  delta.histograms.reserve(histograms.size());
  for (const HistogramSnapshot& end_h : histograms) {
    const HistogramSnapshot* start_h = start.FindHistogram(end_h.name);
    if (start_h == nullptr || start_h->bounds != end_h.bounds ||
        start_h->summary.count() == 0) {
      delta.histograms.push_back(end_h);
      continue;
    }
    HistogramSnapshot h;
    h.name = end_h.name;
    h.bounds = end_h.bounds;
    h.counts.resize(end_h.counts.size());
    for (size_t i = 0; i < h.counts.size(); ++i) {
      const uint64_t s =
          i < start_h->counts.size() ? start_h->counts[i] : 0;
      h.counts[i] = end_h.counts[i] >= s ? end_h.counts[i] - s : 0;
    }
    // Invert RunningStats::Merge(start, delta) == end. min/max are not
    // subtractable; report the end extrema (a superset of the window's).
    const size_t n_end = end_h.summary.count();
    const size_t n_start = start_h->summary.count();
    if (n_end > n_start) {
      const double na = static_cast<double>(n_start);
      const double nd = static_cast<double>(n_end - n_start);
      const double sum_delta =
          end_h.summary.mean() * static_cast<double>(n_end) -
          start_h->summary.mean() * na;
      const double mean_delta = sum_delta / nd;
      const double shift = mean_delta - start_h->summary.mean();
      const double m2_delta =
          end_h.summary.m2() - start_h->summary.m2() -
          shift * shift * na * nd / static_cast<double>(n_end);
      h.summary = RunningStats::FromMoments(
          n_end - n_start, mean_delta, m2_delta, end_h.summary.min(),
          end_h.summary.max());
    }
    delta.histograms.push_back(std::move(h));
  }
  return delta;
}

void MetricsSnapshot::AppendJson(std::string* out, int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
  const std::string pad3 = pad2 + "  ";
  *out += "{\n";

  *out += pad1 + "\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    *out += i == 0 ? "\n" : ",\n";
    *out += pad2 + "\"";
    AppendEscaped(out, counters[i].first);
    *out += "\": ";
    AppendUint(out, counters[i].second);
  }
  *out += counters.empty() ? "},\n" : "\n" + pad1 + "},\n";

  *out += pad1 + "\"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    *out += i == 0 ? "\n" : ",\n";
    *out += pad2 + "\"";
    AppendEscaped(out, gauges[i].first);
    *out += "\": ";
    AppendDouble(out, gauges[i].second);
  }
  *out += gauges.empty() ? "},\n" : "\n" + pad1 + "},\n";

  *out += pad1 + "\"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    *out += i == 0 ? "\n" : ",\n";
    *out += pad2 + "\"";
    AppendEscaped(out, h.name);
    *out += "\": {\"count\": ";
    AppendUint(out, h.summary.count());
    *out += ", \"mean\": ";
    AppendDouble(out, h.summary.mean());
    *out += ", \"stddev\": ";
    AppendDouble(out, h.summary.stddev());
    *out += ", \"min\": ";
    AppendDouble(out, h.summary.min());
    *out += ", \"max\": ";
    AppendDouble(out, h.summary.max());
    *out += ",\n" + pad3 + "\"p50\": ";
    AppendDouble(out, h.P50());
    *out += ", \"p90\": ";
    AppendDouble(out, h.P90());
    *out += ", \"p99\": ";
    AppendDouble(out, h.P99());
    *out += ",\n" + pad3 + "\"buckets\": [";
    bool first_nonzero = true;
    for (size_t b = 0; b < h.counts.size(); ++b) {
      // Zero buckets are elided: the default latency scale has 22 buckets
      // and most are empty; "le" bounds make the kept ones unambiguous.
      if (h.counts[b] == 0) continue;
      if (!first_nonzero) *out += ", ";
      first_nonzero = false;
      *out += "{\"le\": ";
      if (b < h.bounds.size()) {
        AppendDouble(out, h.bounds[b]);
      } else {
        *out += "\"+Inf\"";
      }
      *out += ", \"count\": ";
      AppendUint(out, h.counts[b]);
      *out += "}";
    }
    *out += "]}";
  }
  *out += histograms.empty() ? "}\n" : "\n" + pad1 + "}\n";

  *out += pad + "}";
}

std::string MetricsSnapshot::ToJson(int indent) const {
  std::string out;
  AppendJson(&out, indent);
  return out;
}

// ---- MetricsRegistry ----------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // Meyers static: instruments must outlive every recording thread; all
  // worker pools in this codebase are joined before main returns.
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->Snapshot();
    h.name = name;
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

}  // namespace ie
