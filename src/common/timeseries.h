// SampledRing — a bounded recorder for "value over iteration" telemetry
// (the flight recorder's in-memory learning curves, DESIGN.md §15).
// Appends are O(1) amortized; memory is a hard bound chosen at
// construction. When the ring fills, resolution is halved instead of
// evicting the oldest samples: the ring keeps every sample whose index
// is a multiple of the current stride, and on overflow the stride doubles
// and every now-off-stride sample is compacted away. The retained set is
// therefore a pure function of (capacity, total appends) — deterministic
// regardless of timing — and always spans the full run, oldest to newest,
// which is what a learning curve needs (an evicting ring would only show
// the tail).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ie {

/// Deterministic stride-doubling ring over record types with an `index`
/// member; the pipeline flight recorder (pipeline/recorder.h) rings whole
/// iteration records. Not thread-safe: one writer.
template <typename T>
class SampledRing {
 public:
  /// `capacity` is the hard sample bound; values < 2 are clamped to 2 so
  /// stride doubling always frees space.
  explicit SampledRing(size_t capacity)
      : capacity_(capacity < 2 ? 2 : capacity) {}

  /// Offers the record at the next append index; retains it only when the
  /// index is on the current stride. Returns the index assigned.
  template <typename MakeRecord>
  uint64_t Append(MakeRecord&& make) {
    const uint64_t index = next_index_++;
    if (index % stride_ != 0) return index;
    if (samples_.size() == capacity_) Compact();
    if (index % stride_ == 0) samples_.push_back(make(index));
    return index;
  }

  const std::vector<T>& samples() const { return samples_; }
  std::vector<T>&& TakeSamples() { return std::move(samples_); }
  uint64_t total_appended() const { return next_index_; }
  uint64_t stride() const { return stride_; }
  size_t capacity() const { return capacity_; }

 private:
  /// Doubles the stride and drops every retained sample that is no longer
  /// on it. Retained indices are always multiples of the stride at the
  /// time they were appended; doubling keeps exactly the even multiples,
  /// so after compaction at most ceil(capacity / 2) samples remain.
  void Compact() {
    stride_ *= 2;
    size_t kept = 0;
    for (size_t i = 0; i < samples_.size(); ++i) {
      if (IndexOf(samples_[i]) % stride_ == 0) {
        if (kept != i) samples_[kept] = std::move(samples_[i]);
        ++kept;
      }
    }
    samples_.resize(kept);
  }

  static uint64_t IndexOf(const T& sample) { return sample.index; }

  const size_t capacity_;
  std::vector<T> samples_;
  uint64_t next_index_ = 0;
  uint64_t stride_ = 1;
};

}  // namespace ie
