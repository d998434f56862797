// Low-overhead event tracing (DESIGN.md §10). Each thread records named
// begin/end spans and counter samples into its own preallocated ring
// buffer (single-writer, release-published, so recording is a clock read
// plus a couple of relaxed stores — no locks, no allocation).
// Tracer::StopAndExport() merges all buffers into a Chrome
// `chrome://tracing` / Perfetto-compatible JSON file.
//
// Span balance is guaranteed by construction: BeginSpan() reserves space
// for its matching EndSpan() (plus one slot per already-open span), so a
// buffer that fills up drops whole spans — never a B without its E — and
// counts the drops. The exporter additionally closes any spans still open
// at export time, so emitted traces always pass tools/check_trace.py.
//
// The IE_TRACE_* macros below are the only intended call sites; they check
// a single atomic flag when tracing is inactive.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace ie {

struct TraceEvent {
  const char* name = nullptr;  // static-lifetime string (macro literal)
  char phase = 'B';            // 'B' begin, 'E' end, 'C' counter
  uint64_t ts_ns = 0;          // nanoseconds since Tracer::Start
  double value = 0.0;          // payload for 'C' events
};

/// One thread's preallocated event ring. Written only by its owning thread;
/// the exporter reads events below the release-published size.
class TraceBuffer {
 public:
  TraceBuffer(uint32_t tid, size_t capacity, uint64_t epoch_ns);

  /// Records a 'B' event; false (and counted as dropped) when the buffer
  /// cannot also guarantee room for the matching 'E'. Callers must skip
  /// EndSpan for unrecorded spans (TraceSpan handles this).
  bool BeginSpan(const char* name);
  void EndSpan(const char* name);
  void CounterSample(const char* name, double value);

  uint32_t tid() const { return tid_; }
  size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Export-side accessors: events below size() are fully written
  /// (release/acquire on size_).
  size_t size() const { return size_.load(std::memory_order_acquire); }
  const TraceEvent& event(size_t i) const { return events_[i]; }

 private:
  uint64_t NowNs() const;
  void Append(const char* name, char phase, double value);

  const uint32_t tid_;
  const uint64_t epoch_ns_;
  std::vector<TraceEvent> events_;  // preallocated to capacity; never grows
  std::atomic<size_t> size_{0};
  size_t open_spans_ = 0;  // recorded-but-unclosed spans (owner thread only)
  std::atomic<size_t> dropped_{0};
};

/// Process-wide trace session. Start() arms recording; every thread that
/// records gets a buffer on first use (kept until the next Start so
/// late-exiting threads never dangle). StopAndExport() disarms, writes the
/// Chrome JSON, and leaves the buffers readable until the next Start().
///
/// Sessions are expected to be driven from one coordinating thread (the
/// pipeline loop): Start/StopAndExport must not race each other, and a new
/// Start() must not race threads still recording into the previous
/// session's buffers (the pipeline joins its workers before exporting).
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;  // events per thread

  static Tracer& Global();

  /// Arms recording; false when a session is already active (the caller
  /// should then leave tracing to the session owner).
  bool Start(size_t capacity_per_thread = kDefaultCapacity) EXCLUDES(mu_);

  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Disarms recording and writes all buffered events as Chrome-trace JSON
  /// (implemented in trace_export.cc). No-op error if no session started.
  Status StopAndExport(const std::string& path) EXCLUDES(mu_);

  /// Disarms recording without exporting (test support).
  void Stop() { active_.store(false, std::memory_order_release); }

  /// This thread's buffer for the active session; null when inactive.
  /// The returned pointer is valid until the *next* Start().
  TraceBuffer* ThreadBuffer() EXCLUDES(mu_);

  /// Events dropped across all buffers of the current/last session.
  size_t dropped_events() const EXCLUDES(mu_);

 private:
  Tracer() = default;

  std::atomic<bool> active_{false};
  std::atomic<uint64_t> generation_{0};  // bumped by Start to spill caches
  mutable Mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_ GUARDED_BY(mu_);
  size_t capacity_ GUARDED_BY(mu_) = kDefaultCapacity;
  uint64_t epoch_ns_ GUARDED_BY(mu_) = 0;
};

/// Writes `buffers` as a Chrome trace ({"traceEvents": [...]}) to `path`,
/// synthesizing 'E' events for spans still open in a buffer so the output
/// is always balanced. Shared by Tracer::StopAndExport and tests.
Status ExportChromeTrace(
    const std::vector<std::unique_ptr<TraceBuffer>>& buffers,
    size_t dropped_events, const std::string& path);

/// RAII begin/end span; records nothing when tracing is inactive or the
/// buffer is full (never leaves an unbalanced 'B').
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    Tracer& tracer = Tracer::Global();
    if (!tracer.active()) return;
    TraceBuffer* buffer = tracer.ThreadBuffer();
    if (buffer != nullptr && buffer->BeginSpan(name)) {
      buffer_ = buffer;
      name_ = name;
    }
  }
  ~TraceSpan() {
    if (buffer_ != nullptr) buffer_->EndSpan(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
};

namespace trace_internal {

inline void RecordCounter(const char* name, double value) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.active()) return;
  TraceBuffer* buffer = tracer.ThreadBuffer();
  if (buffer != nullptr) buffer->CounterSample(name, value);
}

}  // namespace trace_internal

#define IE_TRACE_CONCAT_INNER(a, b) a##b
#define IE_TRACE_CONCAT(a, b) IE_TRACE_CONCAT_INNER(a, b)

/// Begin/end span covering the enclosing scope. `name` must be a string
/// literal (it is stored by pointer until export).
#define IE_TRACE_SCOPE(name) \
  ::ie::TraceSpan IE_TRACE_CONCAT(ie_trace_span_, __LINE__)(name)

/// Time series sample ('C' phase): renders as a counter track in
/// Perfetto, making queue depths and detector staleness plottable.
#define IE_TRACE_COUNTER(name, value) \
  ::ie::trace_internal::RecordCounter(name, static_cast<double>(value))

}  // namespace ie
