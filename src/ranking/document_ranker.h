// DocumentRanker: the interface the adaptive pipeline drives. A ranker is
// trained on an initial labeled sample, scores unprocessed documents (on
// word features only — tuple attributes are unknown before extraction),
// and absorbs processed documents online when the update detector fires.
// Includes the trivial Random and Perfect (oracle) reference rankers shown
// in every recall figure of the paper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "learn/binary_svm.h"  // LabeledExample
#include "text/sparse_vector.h"

namespace ie {

class DocumentRanker {
 public:
  virtual ~DocumentRanker() = default;

  /// Trains the initial model from the automatically labeled sample.
  virtual void TrainInitial(const std::vector<LabeledExample>& sample) = 0;

  /// Absorbs one processed document (features include extracted tuple
  /// attribute values) into the model.
  virtual void Observe(const SparseVector& features, bool useful) = 0;

  /// Snapshots model state for a bulk scoring pass (re-rank); Score() must
  /// reflect the state as of the latest snapshot.
  virtual void SnapshotForScoring() = 0;

  /// Priority score; higher means more likely useful.
  virtual double Score(const SparseVector& features) const = 0;

  /// Number of linear score components whose snapshot weights
  /// ComponentSnapshotWeights() exposes (RSVM-IE: 1; BAgg-IE: one per
  /// committee member); 0 for rankers without a weight vector.
  virtual size_t ScoreComponentCount() const { return 0; }

  /// Dense weights of component c as of the latest SnapshotForScoring()
  /// (RSVM-IE: the single model; BAgg-IE: committee member c). The flight
  /// recorder differences consecutive snapshots to report exact ‖Δw‖ per
  /// component at each update. Empty for rankers without components.
  virtual WeightVector ComponentSnapshotWeights(size_t c) const {
    (void)c;
    return {};
  }

  /// Dense model weights for update detection / query refresh. Rankers
  /// without a weight vector return an empty vector.
  virtual WeightVector ModelWeights() const = 0;

  /// Deep copy (Mod-C trains a shadow clone on recent documents).
  virtual std::unique_ptr<DocumentRanker> Clone() const = 0;

  virtual std::string name() const = 0;

  /// Count of features with non-zero weight (feature-selection metric).
  virtual size_t NonZeroFeatureCount() const { return 0; }
};

/// Uniform-random ordering (lower reference line in the figures).
class RandomRanker : public DocumentRanker {
 public:
  explicit RandomRanker(uint64_t seed = 3) : rng_(seed) {}

  void TrainInitial(const std::vector<LabeledExample>&) override {}
  void Observe(const SparseVector&, bool) override {}
  void SnapshotForScoring() override {}
  double Score(const SparseVector&) const override {
    return rng_.NextDouble();
  }
  WeightVector ModelWeights() const override { return {}; }
  std::unique_ptr<DocumentRanker> Clone() const override {
    return std::make_unique<RandomRanker>(*this);
  }
  std::string name() const override { return "random"; }

 private:
  // ARCH: const-escape (Score() is const across the ranker interface but
  // the random baseline draws per call; the rng is per-ranker — and hence
  // per-session — state, never shared, and the rerank engine keeps its
  // scoring serial and insertion-ordered so runs stay deterministic)
  mutable Rng rng_;
};

/// Oracle ordering: all useful documents first (upper reference line).
/// Scores are looked up from precomputed usefulness, keyed externally.
class PerfectRanker : public DocumentRanker {
 public:
  /// `useful_score` is queried by the pipeline through ScoreDoc; the
  /// generic Score() cannot know usefulness from features alone, so the
  /// pipeline special-cases this ranker via set_current_usefulness.
  PerfectRanker() = default;

  void TrainInitial(const std::vector<LabeledExample>&) override {}
  void Observe(const SparseVector&, bool) override {}
  void SnapshotForScoring() override {}
  double Score(const SparseVector&) const override { return current_; }
  WeightVector ModelWeights() const override { return {}; }
  std::unique_ptr<DocumentRanker> Clone() const override {
    return std::make_unique<PerfectRanker>(*this);
  }
  std::string name() const override { return "perfect"; }

  /// The pipeline sets this to 1/0 right before scoring each document.
  void set_current_usefulness(double value) { current_ = value; }

 private:
  double current_ = 0.0;
};

}  // namespace ie
