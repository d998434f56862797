// Online one-class SVM with a Gaussian kernel, trained with Pegasos-style
// steps over a budgeted support-vector set. This powers the Feat-S
// feature-shift baseline (Glazer et al., ICPR'12, as adapted by the paper:
// "an efficient version of feature shifting using an online one-class SVM
// based on Pegasos", Gaussian kernel, γ = 0.01).
#pragma once

#include <cstddef>
#include <vector>

#include "text/sparse_vector.h"

namespace ie {

struct OneClassSvmOptions {
  double gamma = 0.01;   // Gaussian kernel width
  double lambda = 0.01;  // regularization
  size_t budget = 128;   // max support vectors (smallest-|α| eviction)
};

/// Kernel evaluations reuse each support vector's ‖sv‖², cached when it is
/// inserted, and a dot product gathered from x scattered once per call
/// (DESIGN.md §17). The sums equal the sorted-merge evaluation bit for bit.
/// Decision and IsInlier write that scatter array, so they are non-const
/// and one instance must not be shared between threads.
class OneClassSvm {
 public:
  explicit OneClassSvm(OneClassSvmOptions options) : options_(options) {}

  /// Decision value f(x) = Σ α_i K(sv_i, x). Inliers score high.
  double Decision(const SparseVector& x);

  /// True when x falls inside the learned support region, i.e. exactly
  /// when Decision(x) ≥ margin. Stops summing once the partial sum reaches
  /// the margin: every term α_i K(sv_i, x) is ≥ 0, so the verdict holds.
  bool IsInlier(const SparseVector& x, double margin = 0.5);

  /// One Pegasos step on example x (target f(x) ≥ 1).
  void Observe(const SparseVector& x);

  size_t NumSupportVectors() const { return alphas_.size(); }

 private:
  /// Adds α_i K(sv_i, x) for i = 0, 1, ... to a sum starting at 0, and
  /// returns it once it reaches `stop_at` (or after the last term).
  double Sum(const SparseVector& x, double stop_at);
  void Evict();

  OneClassSvmOptions options_;
  std::vector<SparseVector> support_;
  std::vector<double> support_norms_;  // ‖sv_i‖², parallel to support_
  std::vector<double> alphas_;
  std::vector<double> scatter_;  // x's values by id; all zero between calls
  size_t steps_ = 0;
};

}  // namespace ie
