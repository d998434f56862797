// Chrome trace-event JSON writer for TraceBuffer contents. Emits the
// "JSON Object Format" ({"traceEvents": [...]}) understood by
// chrome://tracing and Perfetto's legacy importer:
//   B/E  duration begin/end        {"name","ph","ts","pid","tid"}
//   C    counter sample            + "args":{"value": v}
// Timestamps are microseconds with sub-µs precision kept as decimals.
// detlint: export-path — all floating values go through AppendJsonNumber
// (locale-independent, round-trip exact; see DESIGN.md §12).
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "common/trace.h"

namespace ie {

namespace {

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendEvent(std::string* out, const TraceEvent& ev, uint32_t tid,
                 bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  out->append("  {\"name\": \"");
  AppendEscaped(out, ev.name);
  out->append("\", \"ph\": \"");
  out->push_back(ev.phase);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\", \"ts\": %" PRIu64 ".%03u",
                ev.ts_ns / 1000, static_cast<unsigned>(ev.ts_ns % 1000));
  out->append(buf);
  std::snprintf(buf, sizeof(buf), ", \"pid\": 1, \"tid\": %u", tid);
  out->append(buf);
  if (ev.phase == 'C') {
    out->append(", \"args\": {\"value\": ");
    AppendJsonNumber(out, ev.value);
    out->append("}");
  }
  out->push_back('}');
}

}  // namespace

Status ExportChromeTrace(
    const std::vector<std::unique_ptr<TraceBuffer>>& buffers,
    size_t dropped_events, const std::string& path) {
  std::string out;
  out.reserve(1 << 16);
  out.append("{\"traceEvents\": [\n");
  bool first = true;
  for (const auto& buffer : buffers) {
    const size_t size = buffer->size();
    uint64_t last_ts_ns = 0;
    // Names of spans begun but not ended within [0, size): a stack, since
    // spans on one thread nest.
    std::vector<const char*> open;
    for (size_t i = 0; i < size; ++i) {
      const TraceEvent& ev = buffer->event(i);
      AppendEvent(&out, ev, buffer->tid(), &first);
      last_ts_ns = ev.ts_ns;
      if (ev.phase == 'B') {
        open.push_back(ev.name);
      } else if (ev.phase == 'E' && !open.empty()) {
        open.pop_back();
      }
    }
    // Close spans that were still open when the session stopped (e.g. a
    // span around the export call itself) so the trace stays balanced.
    while (!open.empty()) {
      TraceEvent synthetic;
      synthetic.name = open.back();
      synthetic.phase = 'E';
      synthetic.ts_ns = last_ts_ns;
      AppendEvent(&out, synthetic, buffer->tid(), &first);
      open.pop_back();
    }
  }
  out.append("\n],\n");
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"otherData\": {\"dropped_events\": %zu},\n", dropped_events);
  out.append(buf);
  out.append("\"displayTimeUnit\": \"ms\"}\n");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const int close_rc = std::fclose(f);
  if (written != out.size() || close_rc != 0) {
    return Status::Internal("short write to trace output: " + path);
  }
  return Status::OK();
}

}  // namespace ie
