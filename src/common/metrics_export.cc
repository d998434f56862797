// detlint: export-path — Prometheus text exposition for MetricsSnapshot.
// Machine-scraped output: every floating value goes through
// AppendFormattedDouble (locale-independent, round-trip exact; DESIGN.md
// §12), validated end-to-end by `tools/report.py --validate-prom` in CI.
//
// Exposition shape (https://prometheus.io/docs/instrumenting/exposition_formats/):
//   # TYPE ie_rerank_full_rescores counter
//   ie_rerank_full_rescores 12
//   # TYPE ie_detector_modc_angle_degrees gauge
//   ie_detector_modc_angle_degrees 1.5
#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/metrics.h"
#include "common/string_util.h"

namespace ie {

namespace {

/// Registry names are "layer.event"; Prometheus metric names must match
/// [a-zA-Z_:][a-zA-Z0-9_:]*. Map every other character to '_' and prefix
/// "ie_" (which also rescues names starting with a digit).
std::string PrometheusName(const std::string& name) {
  std::string out = "ie_";
  out.reserve(name.size() + 3);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendTypeLine(std::string* out, const std::string& name,
                    const char* type) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

void AppendUintSample(std::string* out, const std::string& name,
                      uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
  *out += name;
  *out += buf;
}

void AppendDoubleSample(std::string* out, const std::string& name,
                        double value) {
  *out += name;
  *out += ' ';
  AppendFormattedDouble(out, value);
  *out += '\n';
}

}  // namespace

void MetricsSnapshot::AppendPrometheus(std::string* out) const {
  for (const auto& [name, value] : counters) {
    const std::string pname = PrometheusName(name);
    AppendTypeLine(out, pname, "counter");
    AppendUintSample(out, pname, value);
  }
  for (const auto& [name, value] : gauges) {
    const std::string pname = PrometheusName(name);
    AppendTypeLine(out, pname, "gauge");
    AppendDoubleSample(out, pname, value);
  }
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  AppendPrometheus(&out);
  return out;
}

}  // namespace ie
