// Dense reference detectors — the oracles for the Top-K, Feat-S and Mod-C
// statistics (DESIGN.md §17, §18). They compute the statistics the plain
// way: Top-K materializes its side classifier's weights, takes
// TopKFeatures(DenseWeights(), K) and compares lists with a hash-map
// footrule; the one-class SVM recomputes both norms and a sorted-merge dot
// for every support vector; Mod-C materializes the shadow model id by id
// and takes WeightVector::Cosine. TopKDetector, OrderKeyIndex,
// GeneralizedFootrule, OneClassSvm and ModCDetector must match them bit
// for bit (tests/detector_oracle_test.cc drives both on one stream).
// Header-only, like tests/index_oracle.h. Their arithmetic is the
// reference: change it only together with the product code, operation for
// operation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ordered.h"
#include "common/rng.h"
#include "learn/binary_svm.h"
#include "learn/feature_selection.h"
#include "learn/one_class_svm.h"
#include "ranking/learned_rankers.h"
#include "text/sparse_vector.h"
#include "update/update_detector.h"

namespace ie::test {

/// The Top-K side classifier's options (the constant in
/// src/update/update_detector.cc).
inline constexpr ElasticNetOptions kDenseSideClassifier = {
    .lambda_all = 0.01,
    .lambda_l2_share = 1.0,
    .step_offset = 2.0,
    .step_clamp = 2000};

/// The generalized footrule over hash maps: per-list normalized weights of
/// each id's first occurrence, the union visited as a's ids ascending then
/// b-only ids ascending, prefix sums from a (rank, id) sort per list.
inline double DenseFootrule(const std::vector<WeightedFeature>& a,
                            const std::vector<WeightedFeature>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::unordered_map<uint32_t, double> wa, wb;
  double sum_a = 0.0, sum_b = 0.0;
  std::unordered_map<uint32_t, size_t> rank_a, rank_b;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!rank_a.emplace(a[i].id, rank_a.size()).second) continue;
    wa[a[i].id] = a[i].weight;
    sum_a += a[i].weight;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    if (!rank_b.emplace(b[i].id, rank_b.size()).second) continue;
    wb[b[i].id] = b[i].weight;
    sum_b += b[i].weight;
  }
  if (sum_a > 0.0) {
    // DETERMINISM: order-insensitive (element-wise in-place scaling)
    for (auto& [id, w] : wa) w /= sum_a;
  }
  if (sum_b > 0.0) {
    // DETERMINISM: order-insensitive (element-wise in-place scaling)
    for (auto& [id, w] : wb) w /= sum_b;
  }
  struct Item {
    uint32_t id;
    double weight;
    size_t pos_a;
    size_t pos_b;
  };
  const size_t tail_a = rank_a.size();
  const size_t tail_b = rank_b.size();
  auto combined = [&](uint32_t id) {
    const auto ita = wa.find(id);
    const auto itb = wb.find(id);
    const double va = ita == wa.end() ? 0.0 : ita->second;
    const double vb = itb == wb.end() ? 0.0 : itb->second;
    return 0.5 * (va + vb);
  };
  std::vector<Item> items;
  ForEachSorted(rank_a, [&](uint32_t id, size_t pos) {
    const auto itb = rank_b.find(id);
    items.push_back(
        {id, combined(id), pos, itb == rank_b.end() ? tail_b : itb->second});
  });
  ForEachSorted(rank_b, [&](uint32_t id, size_t pos) {
    if (rank_a.count(id) > 0) return;
    items.push_back({id, combined(id), tail_a, pos});
  });
  auto prefix_for = [&](bool use_a) {
    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      const size_t px = use_a ? items[x].pos_a : items[x].pos_b;
      const size_t py = use_a ? items[y].pos_a : items[y].pos_b;
      if (px != py) return px < py;
      return items[x].id < items[y].id;
    });
    std::vector<double> prefix(items.size());
    double run = 0.0;
    for (size_t idx : order) {
      run += items[idx].weight;
      prefix[idx] = run;
    }
    return prefix;
  };
  const std::vector<double> pa = prefix_for(true);
  const std::vector<double> pb = prefix_for(false);
  double f = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    f += items[i].weight * std::fabs(pa[i] - pb[i]);
  }
  return f;
}

/// Top-K with a dense check per document: the side classifier's weights
/// are materialized and partial-sorted at every Observe.
class DenseTopKDetector {
 public:
  explicit DenseTopKDetector(TopKOptions options = {})
      : options_(options), side_(kDenseSideClassifier) {}

  void OnModelUpdated() { reference_ = Current(); }

  bool Observe(const SparseVector& features, bool useful) {
    side_.Update(features, useful ? 1 : -1);
    current_ = Current();
    last_distance_ = DenseFootrule(reference_, current_);
    return last_distance_ > options_.tau;
  }

  double last_distance() const { return last_distance_; }
  /// The top-K list of the last Observe.
  const std::vector<WeightedFeature>& current() const { return current_; }

 private:
  std::vector<WeightedFeature> Current() const {
    return TopKFeatures(side_.DenseWeights(), options_.k);
  }

  TopKOptions options_;
  OnlineBinarySvm side_;
  std::vector<WeightedFeature> reference_;
  std::vector<WeightedFeature> current_;
  double last_distance_ = 0.0;
};

/// The one-class SVM with per-kernel norms and a sorted-merge dot:
/// K(sv, x) = exp(-γ·max(0, ‖sv‖² + ‖x‖² − 2·Dot(sv, x))).
class MergeDotOneClassSvm {
 public:
  explicit MergeDotOneClassSvm(OneClassSvmOptions options)
      : options_(options) {}

  double Decision(const SparseVector& x) const {
    double f = 0.0;
    for (size_t i = 0; i < support_.size(); ++i) {
      f += alphas_[i] * Kernel(support_[i], x);
    }
    return f;
  }

  void Observe(const SparseVector& x) {
    ++steps_;
    const double eta =
        1.0 / (options_.lambda * (static_cast<double>(steps_) + 2.0));
    const double f = Decision(x);
    const double decay = 1.0 - eta * options_.lambda;
    for (double& alpha : alphas_) alpha *= decay;
    if (f < 1.0) {
      support_.push_back(x);
      alphas_.push_back(eta);
      Evict();
    }
  }

  size_t NumSupportVectors() const { return alphas_.size(); }

 private:
  double Kernel(const SparseVector& a, const SparseVector& b) const {
    const double d2 =
        a.L2NormSquared() + b.L2NormSquared() - 2.0 * Dot(a, b);
    return std::exp(-options_.gamma * std::max(0.0, d2));
  }

  void Evict() {
    if (support_.size() <= options_.budget) return;
    size_t victim = 0;
    for (size_t i = 1; i < alphas_.size(); ++i) {
      if (std::fabs(alphas_[i]) < std::fabs(alphas_[victim])) victim = i;
    }
    support_.erase(support_.begin() + static_cast<long>(victim));
    alphas_.erase(alphas_.begin() + static_cast<long>(victim));
  }

  OneClassSvmOptions options_;
  std::vector<SparseVector> support_;
  std::vector<double> alphas_;
  size_t steps_ = 0;
};

/// A learner's weights materialized id by id through the unmemoized
/// CurrentWeight: one std::exp per stored feature.
inline WeightVector DenseLearnerWeights(const ElasticNetSgd& sgd) {
  WeightVector w(sgd.dimension());
  for (uint32_t id = 0; id < sgd.dimension(); ++id) {
    const double v = sgd.CurrentWeight(id);
    if (v != 0.0) w.Set(id, v);
  }
  return w;
}

/// A learned ranker's model, dense: RSVM-IE's weights, or the BAgg-IE
/// committee's element-wise mean, accumulated member by member over each
/// member's dense weights.
inline WeightVector DenseModel(const DocumentRanker& ranker) {
  if (const auto* rsvm = dynamic_cast<const RsvmIeRanker*>(&ranker)) {
    return DenseLearnerWeights(rsvm->svm().learner());
  }
  const BaggingCommittee& committee =
      dynamic_cast<const BaggIeRanker&>(ranker).committee();
  const double size = static_cast<double>(committee.committee_size());
  WeightVector mean;
  for (size_t m = 0; m < committee.committee_size(); ++m) {
    const WeightVector w = DenseLearnerWeights(committee.member(m).learner());
    for (uint32_t id = 0; id < w.dimension(); ++id) {
      const double v = w.Get(id);
      if (v != 0.0) mean.Add(id, v / size);
    }
  }
  return mean;
}

/// Mod-C with dense models: every check materializes the shadow and takes
/// WeightVector::Cosine against the frozen model, norms included. Draws
/// the same ρ stream as ModCDetector for the same seed.
class DenseModCDetector {
 public:
  DenseModCDetector(ModCOptions options, uint64_t seed)
      : options_(options), rng_(seed) {}

  void OnModelUpdated(const DocumentRanker& ranker) {
    shadow_ = ranker.Clone();
    frozen_ = DenseModel(ranker);
    last_angle_ = 0.0;
  }

  bool Observe(const SparseVector& features, bool useful) {
    if (shadow_ == nullptr) return false;
    if (!rng_.NextBool(options_.rho)) return false;
    shadow_->Observe(features, useful);
    const double cosine = WeightVector::Cosine(DenseModel(*shadow_), frozen_);
    last_angle_ = std::acos(std::clamp(cosine, -1.0, 1.0)) * 180.0 / M_PI;
    return last_angle_ > options_.alpha_degrees;
  }

  double last_angle_degrees() const { return last_angle_; }

 private:
  ModCOptions options_;
  Rng rng_;
  std::unique_ptr<DocumentRanker> shadow_;
  WeightVector frozen_;
  double last_angle_ = 0.0;
};

}  // namespace ie::test
