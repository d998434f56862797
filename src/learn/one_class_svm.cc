#include "learn/one_class_svm.h"

#include <algorithm>
#include <cmath>

namespace ie {

double OneClassSvm::Sum(const SparseVector& x, double stop_at) {
  // dots_[s] = sv_s · x from the matched products alone, each slot's in
  // ascending id order as the sorted merge adds them: a sum that starts at
  // +0 is never −0, so the ±0 products of unmatched ids, which the merge
  // never forms, would leave it unchanged.
  std::fill(dots_.begin(), dots_.end(), 0.0);
  const uint32_t* ids = x.ids();
  const float* vals = x.values();
  for (size_t i = 0; i < x.size() && ids[i] < postings_.size(); ++i) {
    const double value = static_cast<double>(vals[i]);
    for (const Posting& p : postings_[ids[i]]) {
      dots_[p.slot] += static_cast<double>(p.value) * value;
    }
  }
  // K(sv, x) = exp(-γ·max(0, ‖sv‖² + ‖x‖² − 2 sv·x)), summed in support
  // order.
  const double x_norm = x.L2NormSquared();
  double f = 0.0;
  for (size_t i = 0; i < slots_.size() && f < stop_at; ++i) {
    const double d2 = norms_[i] + x_norm - 2.0 * dots_[slots_[i]];
    f += alphas_[i] * std::exp(-options_.gamma * std::max(0.0, d2));
  }
  return f;
}

double OneClassSvm::Decision(const SparseVector& x) {
  return Sum(x, HUGE_VAL);
}

bool OneClassSvm::IsInlier(const SparseVector& x, double margin) {
  return Sum(x, margin) >= margin;
}

void OneClassSvm::Insert(const SparseVector& x, double alpha) {
  uint32_t slot = static_cast<uint32_t>(vectors_.size());
  if (free_slots_.empty()) {
    vectors_.push_back(x);
    dots_.push_back(0.0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    vectors_[slot] = x;
  }
  const uint32_t* ids = x.ids();
  const float* vals = x.values();
  if (!x.empty() && ids[x.size() - 1] >= postings_.size()) {
    postings_.resize(static_cast<size_t>(ids[x.size() - 1]) + 1);
  }
  for (size_t i = 0; i < x.size(); ++i) {
    postings_[ids[i]].push_back({slot, vals[i]});
  }
  slots_.push_back(slot);
  norms_.push_back(x.L2NormSquared());
  alphas_.push_back(alpha);
}

void OneClassSvm::Evict() {
  if (alphas_.size() <= options_.budget) return;
  size_t victim = 0;
  for (size_t i = 1; i < alphas_.size(); ++i) {
    if (std::fabs(alphas_[i]) < std::fabs(alphas_[victim])) victim = i;
  }
  const uint32_t slot = slots_[victim];
  SparseVector& sv = vectors_[slot];
  // Within one id's postings the order is free: every slot takes at most
  // one product per id.
  for (size_t i = 0; i < sv.size(); ++i) {
    std::vector<Posting>& list = postings_[sv.ids()[i]];
    const auto it = std::find_if(list.begin(), list.end(),
                                 [slot](const Posting& p) {
                                   return p.slot == slot;
                                 });
    *it = list.back();
    list.pop_back();
  }
  sv = SparseVector();
  free_slots_.push_back(slot);
  slots_.erase(slots_.begin() + static_cast<long>(victim));
  norms_.erase(norms_.begin() + static_cast<long>(victim));
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
    Insert(x, eta);
    Evict();
  }
}

}  // namespace ie
