#include "learn/one_class_svm.h"

#include <algorithm>
#include <cmath>

#include "text/sparse_kernels.h"

namespace ie {

double OneClassSvm::Sum(const SparseVector& x, double stop_at) {
  const uint32_t* ids = x.ids();
  const float* vals = x.values();
  if (!x.empty() && ids[x.size() - 1] >= scatter_.size()) {
    scatter_.resize(static_cast<size_t>(ids[x.size() - 1]) + 1, 0.0);
  }
  for (size_t i = 0; i < x.size(); ++i) {
    scatter_[ids[i]] = static_cast<double>(vals[i]);
  }
  // K(sv, x) = exp(-γ·max(0, ‖sv‖² + ‖x‖² − 2 sv·x)). The gathered dot
  // adds the matched products in ascending id order, as the sorted merge
  // does, plus a ±0 for every unmatched id, which leaves the sum unchanged.
  const double x_norm = x.L2NormSquared();
  double f = 0.0;
  for (size_t i = 0; i < support_.size() && f < stop_at; ++i) {
    const SparseVector& sv = support_[i];
    const double dot = kernels::GatherDot(scatter_.data(), scatter_.size(),
                                          sv.ids(), sv.values(), sv.size());
    const double d2 = support_norms_[i] + x_norm - 2.0 * dot;
    f += alphas_[i] * std::exp(-options_.gamma * std::max(0.0, d2));
  }
  for (size_t i = 0; i < x.size(); ++i) scatter_[ids[i]] = 0.0;
  return f;
}

double OneClassSvm::Decision(const SparseVector& x) {
  return Sum(x, HUGE_VAL);
}

bool OneClassSvm::IsInlier(const SparseVector& x, double margin) {
  return Sum(x, margin) >= margin;
}

void OneClassSvm::Evict() {
  if (support_.size() <= options_.budget) return;
  size_t victim = 0;
  for (size_t i = 1; i < alphas_.size(); ++i) {
    if (std::fabs(alphas_[i]) < std::fabs(alphas_[victim])) victim = i;
  }
  support_.erase(support_.begin() + static_cast<long>(victim));
  support_norms_.erase(support_norms_.begin() + static_cast<long>(victim));
  alphas_.erase(alphas_.begin() + static_cast<long>(victim));
}

void OneClassSvm::Observe(const SparseVector& x) {
  ++steps_;
  const double eta =
      1.0 / (options_.lambda * (static_cast<double>(steps_) + 2.0));
  const double f = Sum(x, 1.0);  // exact below 1; only f < 1 matters
  // Pegasos decay of existing coefficients.
  const double decay = 1.0 - eta * options_.lambda;
  for (double& alpha : alphas_) alpha *= decay;
  // Hinge on f(x) >= 1: inside the region already => no new SV.
  if (f < 1.0) {
    support_.push_back(x);
    support_norms_.push_back(x.L2NormSquared());
    alphas_.push_back(eta);
    Evict();
  }
}

}  // namespace ie
