// Online one-class SVM with a Gaussian kernel, trained with Pegasos-style
// steps over a budgeted support-vector set. This powers the Feat-S
// feature-shift baseline (Glazer et al., ICPR'12, as adapted by the paper:
// "an efficient version of feature shifting using an online one-class SVM
// based on Pegasos", Gaussian kernel, γ = 0.01).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/sparse_vector.h"

namespace ie {

struct OneClassSvmOptions {
  double gamma = 0.01;   // Gaussian kernel width
  double lambda = 0.01;  // regularization
  size_t budget = 128;   // max support vectors (see OneClassSvm::Evict)
};

/// Kernel evaluations reuse each support vector's ‖sv‖², cached when it is
/// inserted, and dot products accumulated from postings: per feature id,
/// the support vectors holding it with their values. One pass over x's
/// ids adds each support vector's matched products in ascending id order
/// (DESIGN.md §17), so the sums equal the sorted-merge evaluation bit for
/// bit. Decision and IsInlier write the per-call dot products, so they are
/// non-const and one instance must not be shared between threads.
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
  /// A support vector's entry in the postings of one feature id.
  struct Posting {
    uint32_t slot;  // the support vector's storage slot
    float value;
  };

  /// Adds α_i K(sv_i, x) for i = 0, 1, ... to a sum starting at 0, and
  /// returns it once it reaches `stop_at` (or after the last term).
  double Sum(const SparseVector& x, double stop_at);
  void Insert(const SparseVector& x, double alpha);
  /// Over budget, drops the first support vector of smallest |α|. Under
  /// the Pegasos decay every α is the same number in exact arithmetic: a
  /// vector inserted at step i holds η_i·Π_{i<s≤t}(1 − η_s·λ) = 1/(λ(t+2))
  /// at step t, whatever i is. So rounding, not the rule, picks the
  /// evicted vector (DESIGN.md §17); the rule stays because the Feat-S
  /// golden digests and benchmark pins depend on it.
  void Evict();

  OneClassSvmOptions options_;
  // Support vectors in support order (insertion order, less evictions).
  std::vector<uint32_t> slots_;
  std::vector<double> norms_;  // ‖sv_i‖²
  std::vector<double> alphas_;
  // By storage slot; a slot freed by an eviction is reused.
  std::vector<SparseVector> vectors_;
  std::vector<double> dots_;  // sv·x of the current call
  std::vector<uint32_t> free_slots_;
  std::vector<std::vector<Posting>> postings_;  // by feature id
  size_t steps_ = 0;
};

}  // namespace ie
