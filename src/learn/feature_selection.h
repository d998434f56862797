// Helpers for inspecting learned models: top-K influential features (used
// by search-interface query refresh), the order-key index that serves the
// same list incrementally to the Top-K update detector, and the
// generalized Spearman's Footrule distance between weighted feature
// rankings (Kumar & Vassilvitskii, WWW'10), which Top-K thresholds on.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "learn/elastic_net_sgd.h"
#include "text/sparse_vector.h"

namespace ie {

struct WeightedFeature {
  uint32_t id = 0;
  /// Importance = |model weight| (sign-insensitive influence).
  double weight = 0.0;
};

/// K features with the largest |weight| in `w`, sorted by descending
/// weight (ties by id). Fewer than K are returned when w is sparser.
std::vector<WeightedFeature> TopKFeatures(const WeightVector& w, size_t k);

/// TopKFeatures(sgd.DenseWeights(), k) without materializing the weights,
/// for a pure-ℓ2 learner (L1Eff() == 0; DESIGN.md §17). Features are kept
/// ordered by ElasticNetSgd::OrderKey, which changes only when a feature
/// is touched, so a step costs O(nnz log dim) and a query O(K log K).
class OrderKeyIndex {
 public:
  /// Re-keys the features of x. Call after every step that applied a
  /// gradient to x (OnlineBinarySvm::Update returned true); no other
  /// step changes a key.
  void Rekey(const ElasticNetSgd& sgd, const SparseVector& x);

  /// Equals TopKFeatures(sgd.DenseWeights(), k) bit for bit, provided
  /// every gradient step on sgd was followed by Rekey.
  std::vector<WeightedFeature> TopK(const ElasticNetSgd& sgd,
                                    size_t k) const;

 private:
  std::set<std::pair<double, uint32_t>> order_;  // (key, id), ascending
  std::vector<double> keys_;  // key per id; -inf = not in order_
};

/// Generalized (element-weighted) Spearman's Footrule between two weighted
/// feature rankings:
///   F = Σ_i w_i · | Σ_{j: rank_a(j) ≤ rank_a(i)} w_j
///                 - Σ_{j: rank_b(j) ≤ rank_b(i)} w_j |
/// computed over the union of the two lists; an element absent from one
/// list is placed after its tail with weight taken from the list that has
/// it. Weights are normalized to sum to 1 per list before comparison, so
/// the distance is scale-free.
double GeneralizedFootrule(const std::vector<WeightedFeature>& a,
                           const std::vector<WeightedFeature>& b);

}  // namespace ie
