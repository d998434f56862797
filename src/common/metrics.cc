// detlint: export-path — MetricsSnapshot::AppendJson emits machine-parsed
// JSON (DESIGN.md §12).
#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/string_util.h"

namespace ie {

namespace {

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

}  // namespace

// ---- MetricsSnapshot ----------------------------------------------------

uint64_t MetricsSnapshot::CounterOr(std::string_view name,
                                    uint64_t fallback) const {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const std::pair<std::string, uint64_t>& e, std::string_view n) {
        return e.first < n;
      });
  return it != counters.end() && it->first == name ? it->second : fallback;
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
    *out += pad2;
    AppendJsonString(out, counters[i].first);
    *out += ": ";
    AppendUint(out, counters[i].second);
  }
  *out += counters.empty() ? "}\n" : "\n" + pad1 + "}\n";
  *out += pad + "}";
}

std::string MetricsSnapshot::ToJson(int indent) const {
  std::string out;
  AppendJson(&out, indent);
  return out;
}

// ---- MetricsRegistry ----------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // Meyers static: counters must outlive every recording thread; all
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

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  return snapshot;
}

}  // namespace ie
