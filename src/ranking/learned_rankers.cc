#include "ranking/learned_rankers.h"

#include <cmath>

namespace ie {

void RsvmIeRanker::TrainInitial(const std::vector<LabeledExample>& sample) {
  // Observe the sample in order: each observation enters its reservoir
  // pool and, once both pools are non-empty, takes the usual
  // steps_per_observation pairwise steps. Then take the configured number
  // of extra pairwise steps.
  for (const LabeledExample& ex : sample) {
    svm_.Observe(ex.features, ex.label > 0);
  }
  svm_.TrainPairs(options_.initial_pair_steps);
  SnapshotForScoring();
}

void RsvmIeRanker::Observe(const SparseVector& features, bool useful) {
  svm_.Observe(features, useful);
}

void RsvmIeRanker::SnapshotForScoring() {
  const uint64_t version = svm_.version();
  if (has_snapshot_ && snapshot_version_ == version) return;
  // Committing pins every weight's pending lazy regularization in place;
  // DenseWeights after the commit is a plain copy of the committed state.
  svm_.CommitWeights();
  snapshot_ = svm_.DenseWeights();
  snapshot_version_ = version;
  has_snapshot_ = true;
}

void BaggIeRanker::SnapshotForScoring() {
  const uint64_t version = committee_.version();
  if (has_snapshot_ && snapshot_version_ == version) return;
  const size_t members = committee_.committee_size();
  snapshots_.resize(members);
  snapshot_biases_.resize(members);
  for (size_t i = 0; i < members; ++i) {
    committee_.mutable_member(i).CommitWeights();
    snapshots_[i] = committee_.member(i).DenseWeights();
    snapshot_biases_[i] = committee_.member(i).bias();
  }
  snapshot_version_ = version;
  has_snapshot_ = true;
}

double BaggIeRanker::Score(const SparseVector& features) const {
  double s = 0.0;
  for (size_t i = 0; i < snapshots_.size(); ++i) {
    const double margin = snapshots_[i].Dot(features) + snapshot_biases_[i];
    s += 1.0 / (1.0 + std::exp(-margin));
  }
  return s;
}

}  // namespace ie
