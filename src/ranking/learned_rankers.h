// The paper's two ranking-generation strategies (Section 3.1):
// RSVM-IE — online RankSVM with stochastic pairwise descent; and
// BAgg-IE — bagging committee of online binary SVM classifiers.
// Both use Pegasos gradient steps and elastic-net in-training feature
// selection; paper parameter defaults: RSVM-IE λAll=0.1, BAgg-IE λAll=0.5,
// λL2=0.99 for both.
#pragma once

#include "learn/bagging.h"
#include "learn/rank_svm.h"
#include "ranking/document_ranker.h"

namespace ie {

struct RsvmIeOptions {
  RankSvmOptions rank_svm = {
      .sgd = {.lambda_all = 0.1,
              .lambda_l2_share = 0.99,
              .step_offset = 2.0,
              .step_clamp = 2000},
      .pool_capacity = 2000,
      .steps_per_observation = 4};
  /// Extra pairwise steps after the initial sample is loaded.
  size_t initial_pair_steps = 6000;
};

class RsvmIeRanker : public DocumentRanker {
 public:
  explicit RsvmIeRanker(RsvmIeOptions options = {}, uint64_t seed = 41)
      : options_(options), svm_(options.rank_svm, seed) {}

  void TrainInitial(const std::vector<LabeledExample>& sample) override;
  void Observe(const SparseVector& features, bool useful) override;
  void SnapshotForScoring() override;
  double Score(const SparseVector& features) const override {
    return snapshot_.Dot(features);
  }
  size_t ScoreComponentCount() const override { return 1; }
  WeightVector ComponentSnapshotWeights(size_t) const override {
    return snapshot_;
  }
  WeightVector ModelWeights() const override { return svm_.DenseWeights(); }
  std::unique_ptr<DocumentRanker> Clone() const override {
    return std::make_unique<RsvmIeRanker>(*this);
  }
  std::string name() const override { return "RSVM-IE"; }
  size_t NonZeroFeatureCount() const override { return svm_.NonZeroCount(); }

 private:
  RsvmIeOptions options_;
  OnlineRankSvm svm_;
  WeightVector snapshot_;
  uint64_t snapshot_version_ = 0;
  bool has_snapshot_ = false;
};

struct BaggIeOptions {
  BaggingOptions bagging = {
      .sgd = {.lambda_all = 0.5,
              .lambda_l2_share = 0.99,
              .step_offset = 2.0,
              // Lower clamp than RSVM-IE: the larger lambda_all shrinks the
              // clamped learning rate, so BAgg-IE needs a shorter effective
              // horizon to keep online adaptation responsive.
              .step_clamp = 1000},
      .committee_size = 3,
      .balance_pool_capacity = 1000,
      .initial_epochs = 5};
};

class BaggIeRanker : public DocumentRanker {
 public:
  explicit BaggIeRanker(BaggIeOptions options = {}, uint64_t seed = 43)
      : options_(options), committee_(options.bagging, seed) {}

  void TrainInitial(const std::vector<LabeledExample>& sample) override {
    committee_.TrainInitial(sample);
  }
  void Observe(const SparseVector& features, bool useful) override {
    committee_.Observe(features, useful);
  }
  void SnapshotForScoring() override;
  double Score(const SparseVector& features) const override;
  size_t ScoreComponentCount() const override {
    return committee_.committee_size();
  }
  WeightVector ComponentSnapshotWeights(size_t c) const override {
    return c < snapshots_.size() ? snapshots_[c] : WeightVector{};
  }
  WeightVector ModelWeights() const override {
    return committee_.MeanDenseWeights();
  }
  std::unique_ptr<DocumentRanker> Clone() const override {
    return std::make_unique<BaggIeRanker>(*this);
  }
  std::string name() const override { return "BAgg-IE"; }
  size_t NonZeroFeatureCount() const override {
    return committee_.NonZeroCount();
  }

 private:
  BaggIeOptions options_;
  BaggingCommittee committee_;
  std::vector<WeightVector> snapshots_;
  std::vector<double> snapshot_biases_;
  uint64_t snapshot_version_ = 0;
  bool has_snapshot_ = false;
};

}  // namespace ie
