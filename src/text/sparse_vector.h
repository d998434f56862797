// Sparse feature vectors. Documents are featurized once into an immutable,
// index-sorted SparseVector; learned models keep a dense, growable
// WeightVector (the feature space expands as extraction progresses).
//
// SparseVector uses a structure-of-arrays layout (DESIGN.md §14): one
// contiguous sorted uint32 id array plus a parallel float value array.
// The scoring kernels (sparse_kernels.h) stream the id array a cache line
// at a time; iteration stays source-compatible through a proxy iterator
// that materializes (id, value) pairs on the fly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace ie {

/// Immutable-ish sparse vector: parallel (feature id, value) arrays sorted
/// by id.
class SparseVector {
 public:
  using Entry = std::pair<uint32_t, float>;

  /// Proxy iterator yielding Entry pairs by value, so range-for loops and
  /// structured bindings over a SparseVector look exactly like iteration
  /// over the old vector<Entry> layout.
  class ConstIterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = Entry;

    ConstIterator(const uint32_t* id, const float* value)
        : id_(id), value_(value) {}

    Entry operator*() const { return {*id_, *value_}; }

    // Arrow proxy so `it->first` keeps working on the by-value Entry.
    struct ArrowProxy {
      Entry entry;
      const Entry* operator->() const { return &entry; }
    };
    ArrowProxy operator->() const { return {{*id_, *value_}}; }

    ConstIterator& operator++() {
      ++id_;
      ++value_;
      return *this;
    }
    bool operator==(const ConstIterator& other) const {
      return id_ == other.id_;
    }
    bool operator!=(const ConstIterator& other) const {
      return id_ != other.id_;
    }

   private:
    const uint32_t* id_;
    const float* value_;
  };

  SparseVector() = default;

  /// Builds from possibly unsorted, possibly duplicated entries; duplicates
  /// are summed, zero values dropped.
  static SparseVector FromUnsorted(std::vector<Entry> entries);

  /// Same semantics over caller-owned storage, which is used as sort
  /// scratch. The per-document featurization hot path stages its entries
  /// in a reused per-thread array and finishes through this overload.
  static SparseVector FromEntrySpan(Entry* data, size_t n);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// SoA accessors for the kernels (sparse_kernels.h).
  const uint32_t* ids() const { return ids_.data(); }
  const float* values() const { return vals_.data(); }
  uint32_t id(size_t i) const { return ids_[i]; }
  float value(size_t i) const { return vals_[i]; }

  ConstIterator begin() const {
    return ConstIterator(ids_.data(), vals_.data());
  }
  ConstIterator end() const {
    return ConstIterator(ids_.data() + ids_.size(),
                         vals_.data() + vals_.size());
  }

  /// Value at feature id (0 if absent). O(log n).
  float Get(uint32_t id) const;

  double L2NormSquared() const;
  double L2Norm() const;
  double L1Norm() const;

  /// Scales all values in place.
  void Scale(float factor);

  /// ℓ2-normalizes in place (no-op on the zero vector).
  void Normalize();

 private:
  std::vector<uint32_t> ids_;
  std::vector<float> vals_;
};

/// Dot product of two sorted sparse vectors. O(n + m).
double Dot(const SparseVector& a, const SparseVector& b);

/// Dense, growable weight vector used by the online learners. Indexing past
/// the current size reads as 0; writes grow the vector.
class WeightVector {
 public:
  WeightVector() = default;
  explicit WeightVector(size_t dim) : w_(dim, 0.0) {}

  double Get(uint32_t id) const {
    return id < w_.size() ? w_[id] : 0.0;
  }
  void Set(uint32_t id, double value) {
    EnsureSize(id + 1);
    w_[id] = value;
  }
  void Add(uint32_t id, double delta) {
    EnsureSize(id + 1);
    w_[id] += delta;
  }

  size_t dimension() const { return w_.size(); }
  const std::vector<double>& raw() const { return w_; }
  std::vector<double>& raw() { return w_; }

  /// Multiplies every weight by factor (lazy-scaling callers may prefer
  /// keeping an external scale; this is the eager version).
  void Scale(double factor);

  /// Dot product with a sparse vector (gather kernel over the id array).
  double Dot(const SparseVector& x) const;

  double L2NormSquared() const;
  double L1Norm() const;

  /// Number of non-zero weights (|w_i| > eps). The paper's in-training
  /// feature selection is judged by this count.
  size_t NonZeroCount(double eps = 1e-12) const;

  /// Calls fn(id, value) for every stored non-zero weight, in id order.
  /// O(dimension) scan but without per-id bounds-checked Get calls.
  template <typename Fn>
  void ForEachNonZero(Fn&& fn) const {
    for (uint32_t id = 0; id < w_.size(); ++id) {
      if (w_[id] != 0.0) fn(id, w_[id]);
    }
  }

  /// Cosine similarity between two weight vectors (0 if either is zero).
  static double Cosine(const WeightVector& a, const WeightVector& b);

 private:
  void EnsureSize(size_t n) {
    if (w_.size() < n) w_.resize(n, 0.0);
  }

  std::vector<double> w_;
};

}  // namespace ie
