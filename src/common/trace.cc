#include "common/trace.h"

#include <time.h>

#include <unordered_map>

namespace ie {

namespace {

uint64_t MonotonicNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

TraceBuffer::TraceBuffer(uint32_t tid, size_t capacity, uint64_t epoch_ns)
    : tid_(tid), epoch_ns_(epoch_ns), events_(capacity) {}

uint64_t TraceBuffer::NowNs() const { return MonotonicNowNs() - epoch_ns_; }

void TraceBuffer::Append(const char* name, char phase, double value) {
  const size_t i = size_.load(std::memory_order_relaxed);
  TraceEvent& ev = events_[i];
  ev.name = name;
  ev.phase = phase;
  ev.ts_ns = NowNs();
  ev.value = value;
  // Release-publish: the exporter's acquire load of size_ makes the event
  // fields above visible before the slot is considered readable.
  size_.store(i + 1, std::memory_order_release);
}

bool TraceBuffer::BeginSpan(const char* name) {
  // Reservation invariant: after recording this 'B' there must still be
  // room for its own 'E' plus one 'E' per span already open, so every
  // recorded begin always gets its matching end (check_trace.py balance).
  const size_t size = size_.load(std::memory_order_relaxed);
  if (size + open_spans_ + 2 > events_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ++open_spans_;
  Append(name, 'B', 0.0);
  return true;
}

void TraceBuffer::EndSpan(const char* name) {
  // Space was reserved by the matching BeginSpan.
  --open_spans_;
  Append(name, 'E', 0.0);
}

void TraceBuffer::CounterSample(const char* name, double value) {
  const size_t size = size_.load(std::memory_order_relaxed);
  if (size + open_spans_ + 1 > events_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Append(name, 'C', value);
}

Tracer& Tracer::Global() {
  // Meyers static: the tracer must outlive every recording thread; all
  // worker pools in this codebase are joined before main returns.
  static Tracer tracer;
  return tracer;
}

bool Tracer::Start(size_t capacity_per_thread) {
  MutexLock lock(mu_);
  if (active_.load(std::memory_order_relaxed)) return false;
  // Safe to drop the previous session's buffers now: a new session only
  // starts once prior recording threads have quiesced (class contract).
  buffers_.clear();
  capacity_ = capacity_per_thread == 0 ? kDefaultCapacity : capacity_per_thread;
  epoch_ns_ = MonotonicNowNs();
  generation_.fetch_add(1, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
  return true;
}

Status Tracer::StopAndExport(const std::string& path) {
  active_.store(false, std::memory_order_release);
  MutexLock lock(mu_);
  if (epoch_ns_ == 0 && buffers_.empty()) {
    return Status::FailedPrecondition("no trace session was started");
  }
  size_t dropped = 0;
  for (const auto& buffer : buffers_) dropped += buffer->dropped();
  return ExportChromeTrace(buffers_, dropped, path);
}

TraceBuffer* Tracer::ThreadBuffer() {
  // Generation-keyed cache: a pointer cached during session N is never
  // reused in session N+1 (Start() clears buffers_, so stale pointers
  // would dangle without the generation check).
  struct Cached {
    uint64_t generation = 0;
    TraceBuffer* buffer = nullptr;
  };
  thread_local Cached cached;
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cached.buffer != nullptr && cached.generation == generation) {
    return cached.buffer;
  }
  MutexLock lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return nullptr;
  auto buffer = std::make_unique<TraceBuffer>(
      static_cast<uint32_t>(buffers_.size() + 1), capacity_, epoch_ns_);
  cached.buffer = buffer.get();
  // Re-read under the lock: if Start() bumped the generation between the
  // acquire load above and here, cache against the session we actually
  // registered into rather than registering a duplicate on the next call.
  cached.generation = generation_.load(std::memory_order_relaxed);
  buffers_.push_back(std::move(buffer));
  return cached.buffer;
}

size_t Tracer::dropped_events() const {
  MutexLock lock(mu_);
  size_t dropped = 0;
  for (const auto& buffer : buffers_) dropped += buffer->dropped();
  return dropped;
}

}  // namespace ie
