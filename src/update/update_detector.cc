#include "update/update_detector.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"

namespace ie {

namespace {

// The Top-K side classifier. It is pure ℓ2 (λL2 share 1, so L1Eff() is 0)
// because the OrderKeyIndex that serves its top-K list is exact only
// without ℓ1; that is why it is a constant and not an option.
constexpr ElasticNetOptions kSideClassifier = {.lambda_all = 0.01,
                                               .lambda_l2_share = 1.0,
                                               .step_offset = 2.0,
                                               .step_clamp = 2000};

}  // namespace

TopKDetector::TopKDetector(TopKOptions options)
    : options_(options), side_(kSideClassifier) {}

void TopKDetector::OnModelUpdated(
    const DocumentRanker& ranker,
    const std::vector<LabeledExample>& absorbed) {
  (void)ranker;
  // The side classifier keeps learning across updates; absorbed documents
  // were already fed through Observe. Snapshot the reference feature set.
  (void)absorbed;
  reference_ = FootruleReference(index_.TopK(side_.learner(), options_.k));
}

bool TopKDetector::Observe(const SparseVector& features, bool useful,
                           const DocumentRanker& ranker) {
  (void)ranker;
  if (side_.Update(features, useful ? 1 : -1)) {
    index_.Rekey(side_.learner(), features);
  }
  IE_METRIC_COUNT("detector.checks");
  last_distance_ =
      reference_.Distance(index_.TopK(side_.learner(), options_.k));
  IE_TRACE_COUNTER("detector.topk.footrule", last_distance_);
  return last_distance_ > options_.tau;
}

void ModCDetector::OnModelUpdated(
    const DocumentRanker& ranker,
    const std::vector<LabeledExample>& absorbed) {
  (void)absorbed;
  shadow_ = ranker.Clone();
  frozen_weights_ = ranker.ModelWeights();
  frozen_norm_ = std::sqrt(frozen_weights_.L2NormSquared());
  last_angle_ = 0.0;
}

bool ModCDetector::Observe(const SparseVector& features, bool useful,
                           const DocumentRanker& ranker) {
  (void)ranker;
  if (shadow_ == nullptr) return false;
  if (!rng_.NextBool(options_.rho)) return false;
  shadow_->Observe(features, useful);
  // WeightVector::Cosine(shadow_->ModelWeights(), frozen_weights_) from one
  // id-ordered visit of the shadow: the terms the visit skips are zeros,
  // and adding a zero never changes a sum that starts at +0 (DESIGN.md
  // §18), so the dot and the norm are the dense ones bit for bit.
  double dot = 0.0;
  double norm_sq = 0.0;
  shadow_->ForEachModelWeight([this, &dot, &norm_sq](uint32_t id, double w) {
    dot += w * frozen_weights_.Get(id);
    norm_sq += w * w;
  });
  const double norm = std::sqrt(norm_sq);
  const double cosine =
      norm == 0.0 || frozen_norm_ == 0.0 ? 0.0 : dot / (norm * frozen_norm_);
  last_angle_ =
      std::acos(std::clamp(cosine, -1.0, 1.0)) * 180.0 / M_PI;
  IE_METRIC_COUNT("detector.checks");
  IE_TRACE_COUNTER("detector.modc.angle_degrees", last_angle_);
  return last_angle_ > options_.alpha_degrees;
}

void FeatSDetector::OnModelUpdated(
    const DocumentRanker& ranker,
    const std::vector<LabeledExample>& absorbed) {
  (void)ranker;
  // The documents the model was (re)trained on define the "training
  // distribution" the one-class SVM models.
  for (const LabeledExample& ex : absorbed) {
    svm_.Observe(ex.features);
  }
  // Recalibrate the inlier margin to a quantile of the training decisions,
  // so S ~ (1 - quantile) on in-distribution data regardless of kernel
  // scale.
  if (!absorbed.empty()) {
    std::vector<double> decisions;
    decisions.reserve(absorbed.size());
    for (const LabeledExample& ex : absorbed) {
      decisions.push_back(svm_.Decision(ex.features));
    }
    std::sort(decisions.begin(), decisions.end());
    // Clamped into [0, 1], NaN read as 0, so the index stays in range.
    const double quantile = options_.margin_quantile > 0.0
                                ? std::min(options_.margin_quantile, 1.0)
                                : 0.0;
    const size_t idx = static_cast<size_t>(
        quantile * static_cast<double>(decisions.size() - 1));
    margin_ = decisions[idx];
  }
  recent_inlier_.clear();
  inlier_sum_ = 0;
  since_check_ = 0;
}

bool FeatSDetector::Observe(const SparseVector& features, bool useful,
                            const DocumentRanker& ranker) {
  (void)useful;
  (void)ranker;
  const uint8_t inlier = svm_.IsInlier(features, margin_) ? 1 : 0;
  recent_inlier_.push_back(inlier);
  inlier_sum_ += inlier;
  if (recent_inlier_.size() > options_.window) {
    inlier_sum_ -= recent_inlier_.front();
    recent_inlier_.pop_front();
  }
  if (++since_check_ < options_.min_docs_between_checks) return false;
  since_check_ = 0;
  if (recent_inlier_.empty()) return false;
  const double s = static_cast<double>(inlier_sum_) /
                   static_cast<double>(recent_inlier_.size());
  last_shift_ = 1.0 - s;
  IE_METRIC_COUNT("detector.checks");
  IE_TRACE_COUNTER("detector.feats.shift", last_shift_);
  return last_shift_ > options_.threshold;
}

}  // namespace ie
