// detlint: export-path — MetricsSnapshot::AppendJson emits machine-parsed
// JSON; floating values go through AppendJsonNumber (DESIGN.md §12).
#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/string_util.h"

namespace ie {

namespace {

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

// ---- MetricsSnapshot ----------------------------------------------------

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
  return delta;
}

void MetricsSnapshot::AppendJson(std::string* out, int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
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
  *out += gauges.empty() ? "}\n" : "\n" + pad1 + "}\n";

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
  return snapshot;
}

}  // namespace ie
