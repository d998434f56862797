#include "text/sparse_vector.h"

#include <algorithm>
#include <cmath>

#include "text/sparse_kernels.h"

namespace ie {

SparseVector SparseVector::FromEntrySpan(Entry* data, size_t n) {
  std::sort(data, data + n,
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  SparseVector out;
  out.ids_.reserve(n);
  out.vals_.reserve(n);
  // Fold duplicates (summed in sorted-array order) and drop exact zeros —
  // the same semantics as the historical AoS FromUnsorted.
  for (size_t i = 0; i < n;) {
    const uint32_t id = data[i].first;
    float value = data[i].second;
    for (++i; i < n && data[i].first == id; ++i) value += data[i].second;
    if (value != 0.0f) {
      out.ids_.push_back(id);
      out.vals_.push_back(value);
    }
  }
  return out;
}

SparseVector SparseVector::FromUnsorted(std::vector<Entry> entries) {
  return FromEntrySpan(entries.data(), entries.size());
}

float SparseVector::Get(uint32_t id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) {
    return vals_[static_cast<size_t>(it - ids_.begin())];
  }
  return 0.0f;
}

double SparseVector::L2NormSquared() const {
  double s = 0.0;
  for (const float value : vals_) {
    const double v = static_cast<double>(value);
    s += v * v;
  }
  return s;
}

double SparseVector::L2Norm() const { return std::sqrt(L2NormSquared()); }

double SparseVector::L1Norm() const {
  double s = 0.0;
  for (const float value : vals_) s += std::fabs(static_cast<double>(value));
  return s;
}

void SparseVector::Scale(float factor) {
  for (float& value : vals_) value *= factor;
}

void SparseVector::Normalize() {
  const double norm = L2Norm();
  if (norm > 0.0) Scale(static_cast<float>(1.0 / norm));
}

double Dot(const SparseVector& a, const SparseVector& b) {
  return kernels::SparseSparseDot(a.ids(), a.values(), a.size(), b.ids(),
                                  b.values(), b.size());
}

void WeightVector::Scale(double factor) {
  for (double& w : w_) w *= factor;
}

double WeightVector::Dot(const SparseVector& x) const {
  return kernels::GatherDot(w_.data(), w_.size(), x.ids(), x.values(),
                            x.size());
}

double WeightVector::L2NormSquared() const {
  double s = 0.0;
  for (double w : w_) s += w * w;
  return s;
}

double WeightVector::L1Norm() const {
  double s = 0.0;
  for (double w : w_) s += std::fabs(w);
  return s;
}

size_t WeightVector::NonZeroCount(double eps) const {
  size_t n = 0;
  for (double w : w_) {
    if (std::fabs(w) > eps) ++n;
  }
  return n;
}

double WeightVector::Cosine(const WeightVector& a, const WeightVector& b) {
  const size_t n = std::min(a.w_.size(), b.w_.size());
  double dot = 0.0;
  for (size_t i = 0; i < n; ++i) dot += a.w_[i] * b.w_[i];
  const double na = std::sqrt(a.L2NormSquared());
  const double nb = std::sqrt(b.L2NormSquared());
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (na * nb);
}

}  // namespace ie
