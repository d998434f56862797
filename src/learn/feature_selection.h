// Helpers for inspecting learned models: top-K influential features (used
// by search-interface query refresh), the order-key index that serves the
// same list incrementally to the Top-K update detector, and the
// generalized Spearman's Footrule distance between weighted feature
// rankings (Kumar & Vassilvitskii, WWW'10), which Top-K thresholds on.
#pragma once

#include <cmath>
#include <cstdint>
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
/// for a pure-ℓ2 learner (L1Eff() == 0; DESIGN.md §17). Features are
/// ordered by ElasticNetSgd::OrderKey, which changes only when a feature
/// is touched. The index keeps every feature's key and a window: the
/// (key, id) pairs at or above a floor pair, sorted descending, which are
/// the highest keys. A re-key that stays below the floor is one array
/// write; a query walks the window and rebuilds it from the keys when the
/// walk cannot prove its stop inside it. TopK may rebuild the window, so
/// it is non-const, and one index must not be shared between threads.
class OrderKeyIndex {
 public:
  /// Re-keys the features of x. Call after every step that applied a
  /// gradient to x (OnlineBinarySvm::Update returned true); no other
  /// step changes a key.
  void Rekey(const ElasticNetSgd& sgd, const SparseVector& x);

  /// Equals TopKFeatures(sgd.DenseWeights(), k) bit for bit, provided
  /// every gradient step on sgd was followed by Rekey.
  std::vector<WeightedFeature> TopK(const ElasticNetSgd& sgd, size_t k);

  /// Number of window rebuilds so far (introspection for tests).
  size_t rebuilds() const { return rebuilds_; }

 private:
  struct Entry {
    double key;
    uint32_t id;
  };
  /// The window's order: descending key, then descending id, as a walk
  /// from the largest (key, id) pair of an ordered set goes.
  struct Above {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key > b.key || (a.key == b.key && a.id > b.id);
    }
  };

  /// Walks the window in descending (key, id) order, appending candidates
  /// to `top`. Returns false when a feature outside the window could
  /// still be a candidate.
  bool Walk(const ElasticNetSgd& sgd, size_t k,
            std::vector<WeightedFeature>& top) const;
  /// Refills the window with the `size` highest keyed features.
  void Rebuild(size_t size);

  std::vector<double> keys_;  // key per id; -inf = not keyed
  std::vector<Entry> window_;  // every keyed pair >= floor_, descending
  std::vector<Entry> leaving_, entering_, merged_;  // Rekey's scratch
  Entry floor_ = {-HUGE_VAL, 0};  // -inf key: the window holds every pair
  size_t target_ = 0;  // window size after a trim; 2K of the largest query
  size_t rebuilds_ = 0;
};

/// The reference list `a` of a generalized Spearman's Footrule
/// (Kumar & Vassilvitskii, WWW'10) between two weighted feature rankings:
///   F = Σ_i w_i · | Σ_{j: rank_a(j) ≤ rank_a(i)} w_j
///                 - Σ_{j: rank_b(j) ≤ rank_b(i)} w_j |
/// computed over the union of the two lists; an element absent from one
/// list is placed after its tail with weight taken from the list that has
/// it. Weights are normalized to sum to 1 per list before comparison, so
/// the distance is scale-free. A list's duplicate ids keep their first
/// occurrence. The reference's id order, ranks and normalized weights are
/// computed once, with a table indexed by id, so a distance looks b's ids
/// up in a by index and sorts only the ids that a lacks. Distance reuses
/// scratch arrays, so it is non-const.
class FootruleReference {
 public:
  /// The empty list.
  FootruleReference() = default;
  explicit FootruleReference(const std::vector<WeightedFeature>& a);

  /// F(a, b), bit for bit the summation order DESIGN.md §17 fixes.
  double Distance(const std::vector<WeightedFeature>& b);

 private:
  struct Ranked {
    uint32_t id;
    uint32_t rank;  // among the list's distinct ids, in list order
    double weight;  // normalized by the list's sum
  };

  static constexpr uint32_t kAbsent = UINT32_MAX;

  std::vector<Ranked> by_id_;    // a's distinct ids, ascending
  std::vector<uint32_t> by_rank_;  // by_id_ index of each rank
  // by_id_ index of each id up to a's largest; kAbsent for an id a lacks.
  std::vector<uint32_t> index_of_;

  // Scratch for Distance: one slot per entry of b, per by_id_ entry, and
  // per union item (a's ids, then b-only ids ascending).
  std::vector<uint32_t> item_of_b_;  // union item of b[j]; none if a repeat
  std::vector<uint32_t> b_of_a_;     // first b entry matching by_id_[i]
  std::vector<std::pair<uint32_t, uint32_t>> b_only_;  // (id, j)
  std::vector<double> item_weight_;
  std::vector<double> prefix_a_;
  std::vector<double> prefix_b_;
};

/// The generalized footrule between lists a and b:
/// FootruleReference(a).Distance(b).
double GeneralizedFootrule(const std::vector<WeightedFeature>& a,
                           const std::vector<WeightedFeature>& b);

}  // namespace ie
