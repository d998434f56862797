// Online RankSVM trained with Stochastic Pairwise Descent (Sculley, NIPS'09
// workshop) and elastic-net in-training feature selection — the learning
// core of RSVM-IE. Each training step samples one useful and one useless
// document from reservoir pools of observed documents and takes a pairwise
// hinge step enforcing score(useful) > score(useless).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "learn/elastic_net_sgd.h"
#include "text/sparse_vector.h"

namespace ie {

struct RankSvmOptions {
  ElasticNetOptions sgd;
  /// Reservoir capacity per class; pairs are sampled from these pools.
  size_t pool_capacity = 2000;
  /// Pairwise steps taken per observed document.
  int steps_per_observation = 4;
};

class OnlineRankSvm {
 public:
  explicit OnlineRankSvm(RankSvmOptions options, uint64_t seed = 7)
      : options_(options), sgd_(options.sgd), rng_(seed) {}

  /// Ranking score s(d) = w·d.
  double Score(const SparseVector& x) const { return sgd_.Score(x); }

  /// Observes a labeled document: stores it in the matching reservoir pool
  /// and takes `steps_per_observation` sampled pairwise steps.
  void Observe(const SparseVector& x, bool useful);

  /// Takes `n` extra pairwise steps from the pools (used for the initial
  /// sample-training phase). No-op until both pools are non-empty.
  void TrainPairs(size_t n);

  size_t steps() const { return sgd_.steps(); }

  /// Monotone version of the scoring function. Every SGD step mutates the
  /// weights (Pegasos decay applies even on non-violating steps), and
  /// nothing else does, so the step count versions w exactly; the ranker
  /// uses it to skip no-op re-snapshots.
  uint64_t version() const { return sgd_.steps(); }

  size_t useful_pool_size() const { return useful_.size(); }
  size_t useless_pool_size() const { return useless_.size(); }
  WeightVector DenseWeights() const { return sgd_.DenseWeights(); }

  /// Commits pending regularization in place (see ElasticNetSgd::CommitAll).
  void CommitWeights() { sgd_.CommitAll(); }
  size_t NonZeroCount(double eps = 1e-9) const {
    return sgd_.NonZeroCount(eps);
  }

  /// Mod-C clones the learner to train a shadow copy on recent documents.
  OnlineRankSvm(const OnlineRankSvm&) = default;
  OnlineRankSvm& operator=(const OnlineRankSvm&) = default;

 private:
  void ReservoirAdd(std::vector<SparseVector>& pool, size_t& seen,
                    const SparseVector& x);

  RankSvmOptions options_;
  ElasticNetSgd sgd_;
  Rng rng_;
  std::vector<SparseVector> useful_;
  std::vector<SparseVector> useless_;
  size_t useful_seen_ = 0;
  size_t useless_seen_ = 0;
};

}  // namespace ie
