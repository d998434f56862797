// Bootstrap-aggregated committee of online binary SVMs — the learning core
// of BAgg-IE (paper Section 3.1). The committee holds three classifiers
// (the paper: "additional classifiers would slightly improve performance at
// the expense of substantial overhead"), trained over disjoint splits of
// the labeled documents with balanced labels; the document score is the sum
// of the members' sigmoid-normalized confidences.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "learn/binary_svm.h"
#include "text/sparse_vector.h"

namespace ie {

struct BaggingOptions {
  ElasticNetOptions sgd;
  size_t committee_size = 3;
  /// Per-member cap on retained minority examples used for re-balancing.
  size_t balance_pool_capacity = 1000;
  int initial_epochs = 5;
};

class BaggingCommittee {
 public:
  explicit BaggingCommittee(BaggingOptions options, uint64_t seed = 11);

  /// Committee score: Σ_i sigmoid(w_i·d + b_i). Higher = more useful.
  double Score(const SparseVector& x) const;

  /// Initial training: splits `examples` into disjoint per-member shards,
  /// balances labels within each shard by oversampling the minority class,
  /// then trains each member for `initial_epochs`.
  void TrainInitial(const std::vector<LabeledExample>& examples);

  /// Online update: routes the example to one member (round-robin) and
  /// keeps that member balanced by replaying one stored example of the
  /// opposite label when the running label counts diverge.
  void Observe(const SparseVector& x, bool useful);

  size_t committee_size() const { return members_.size(); }
  const OnlineBinarySvm& member(size_t i) const { return members_[i]; }
  /// Mutable access for scoring snapshots (CommitWeights).
  OnlineBinarySvm& mutable_member(size_t i) { return members_[i]; }

  /// Monotone version of the committee scoring function: the sum of the
  /// members' SGD step counts (each step mutates that member's weights via
  /// Pegasos decay; bias moves only alongside a step).
  uint64_t version() const {
    uint64_t v = 0;
    for (const OnlineBinarySvm& member : members_) v += member.steps();
    return v;
  }

  /// Calls fn(id, mean) for every id whose element-wise mean of the
  /// members' current weights is non-zero, in ascending id order, without
  /// materializing a member (Mod-C's model-level comparison). Each mean is
  /// 0 plus w / committee_size() for every non-zero member weight w, added
  /// in member order.
  template <typename Fn>
  void ForEachMeanWeight(Fn&& fn) const {
    std::vector<ElasticNetSgd::Reader> readers;
    readers.reserve(members_.size());
    size_t dimension = 0;
    for (const OnlineBinarySvm& member : members_) {
      readers.emplace_back(member.learner());
      dimension = std::max(dimension, member.learner().dimension());
    }
    const double size = static_cast<double>(members_.size());
    for (uint32_t id = 0; id < dimension; ++id) {
      double mean = 0.0;
      for (ElasticNetSgd::Reader& reader : readers) {
        const double v = reader.Weight(id);
        if (v != 0.0) mean += v / size;
      }
      if (mean != 0.0) fn(id, mean);
    }
  }

  /// The element-wise mean materialized through ForEachMeanWeight.
  WeightVector MeanDenseWeights() const {
    WeightVector mean;
    ForEachMeanWeight([&mean](uint32_t id, double v) { mean.Set(id, v); });
    return mean;
  }

  size_t NonZeroCount(double eps = 1e-9) const;

  /// The balance pools are copy-on-write: a copy shares the stored
  /// documents, which are immutable, and replaces pointers only.
  BaggingCommittee(const BaggingCommittee&) = default;
  BaggingCommittee& operator=(const BaggingCommittee&) = default;

 private:
  using Pool = std::vector<std::shared_ptr<const SparseVector>>;

  struct MemberState {
    size_t positives_seen = 0;
    size_t negatives_seen = 0;
    Pool positive_pool;
    Pool negative_pool;
  };

  void PoolAdd(Pool& pool, const SparseVector& x);

  BaggingOptions options_;
  Rng rng_;
  std::vector<OnlineBinarySvm> members_;
  std::vector<MemberState> states_;
  size_t next_member_ = 0;
};

}  // namespace ie
