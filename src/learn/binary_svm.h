// Online SVM-based binary classifier (Joachims-style text SVM, trained
// with Pegasos steps and elastic-net in-training feature selection). One
// instance of this class is one member of the BAgg-IE committee; it is also
// the side classifier that the Top-K update detector maintains.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "learn/elastic_net_sgd.h"
#include "text/sparse_vector.h"

namespace ie {

struct LabeledExample {
  SparseVector features;
  /// +1 = useful document, -1 = useless.
  int label = 1;
};

class OnlineBinarySvm {
 public:
  explicit OnlineBinarySvm(ElasticNetOptions options = {})
      : sgd_(options) {}

  /// Raw margin score w·x + b.
  double Margin(const SparseVector& x) const { return sgd_.Score(x) + bias_; }

  /// Normalized confidence s(d) = 1 / (1 + e^-(w·d + b)) — the committee
  /// aggregation score in BAgg-IE.
  double Confidence(const SparseVector& x) const;

  bool Predict(const SparseVector& x) const { return Margin(x) >= 0.0; }

  /// One online update; returns true when the example violated the margin.
  bool Update(const SparseVector& x, int y);

  /// Multi-epoch training over a batch (shuffled each epoch).
  void TrainBatch(const std::vector<LabeledExample>& examples, int epochs,
                  Rng* rng);

  size_t steps() const { return sgd_.steps(); }
  double bias() const { return bias_; }
  WeightVector DenseWeights() const { return sgd_.DenseWeights(); }
  /// The underlying learner (read-only), e.g. for an OrderKeyIndex.
  const ElasticNetSgd& learner() const { return sgd_; }

  /// Commits pending regularization in place (see ElasticNetSgd::CommitAll).
  void CommitWeights() { sgd_.CommitAll(); }
  size_t NonZeroCount(double eps = 1e-9) const {
    return sgd_.NonZeroCount(eps);
  }

 private:
  ElasticNetSgd sgd_;
  double bias_ = 0.0;
};

}  // namespace ie
