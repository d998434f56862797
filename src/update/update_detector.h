// Update detection (paper Section 3.2): decide when retraining the ranking
// model — and re-ranking the unprocessed documents — is likely to have a
// significantly positive impact. The pipeline freezes the ranking model
// between updates, buffers processed documents, and asks the detector after
// each one; on trigger, the buffered documents are absorbed and the
// remaining pool is re-ranked.
//
// Detectors: Wind-F (fixed window baseline), Feat-S (feature-shift via
// online one-class SVM baseline), Top-K (footrule distance over the most
// influential features of a side classifier), Mod-C (angle between the
// ranking model and a shadow model trained on a fraction ρ of recent docs).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "learn/binary_svm.h"
#include "learn/feature_selection.h"
#include "learn/one_class_svm.h"
#include "ranking/document_ranker.h"
#include "text/sparse_vector.h"

namespace ie {

class UpdateDetector {
 public:
  virtual ~UpdateDetector() = default;

  /// Called after the ranker (re)trains: at initialization with the sample,
  /// and after every triggered update with the freshly absorbed documents.
  virtual void OnModelUpdated(const DocumentRanker& ranker,
                              const std::vector<LabeledExample>& absorbed) {
    (void)ranker;
    (void)absorbed;
  }

  /// Observes one processed document; returns true to trigger an update.
  virtual bool Observe(const SparseVector& features, bool useful,
                       const DocumentRanker& ranker) = 0;

  /// The detector's scalar drift statistic as of the last Observe() — the
  /// value compared against its trigger threshold (Top-K footrule, Mod-C
  /// angle, Feat-S shift). The pipeline flight recorder samples this once
  /// per iteration; detectors without a statistic report 0.
  virtual double LastStatistic() const { return 0.0; }

  virtual std::string name() const = 0;
};

/// Never updates: the "Base" (non-adaptive) configurations.
class NeverUpdateDetector : public UpdateDetector {
 public:
  bool Observe(const SparseVector&, bool, const DocumentRanker&) override {
    return false;
  }
  std::string name() const override { return "none"; }
};

/// Wind-F: updates every `interval` processed documents (the paper reports
/// 50 updates per run, i.e. interval = pool size / 50). Interval 0 never
/// updates.
class WindFDetector : public UpdateDetector {
 public:
  explicit WindFDetector(size_t interval) : interval_(interval) {}

  bool Observe(const SparseVector&, bool, const DocumentRanker&) override {
    return interval_ > 0 && ++count_ % interval_ == 0;
  }
  std::string name() const override { return "Wind-F"; }

 private:
  size_t interval_;
  size_t count_ = 0;
};

struct TopKOptions {
  size_t k = 200;
  /// Trigger threshold τ on the generalized footrule (paper: τ = ε·K with
  /// ε = 0.0025, i.e. 0.5; our footrule is normalized per-list, so the
  /// threshold is calibrated on the same scale — see bench_fig8).
  double tau = 0.10;
};

/// Top-K: maintains its own online linear SVM on the same features as the
/// ranker; after every document compares the current top-K features
/// against the top-K at the last model update with the generalized
/// Spearman's footrule. The lists come off an OrderKeyIndex over the side
/// classifier, and the footrule's reference side is prepared once per
/// update, so a check costs about O(K log K), not O(model dimension).
class TopKDetector : public UpdateDetector {
 public:
  explicit TopKDetector(TopKOptions options = {});

  void OnModelUpdated(const DocumentRanker& ranker,
                      const std::vector<LabeledExample>& absorbed) override;
  bool Observe(const SparseVector& features, bool useful,
               const DocumentRanker& ranker) override;
  std::string name() const override { return "Top-K"; }

  double LastStatistic() const override { return last_distance_; }

 private:
  TopKOptions options_;
  OnlineBinarySvm side_;
  OrderKeyIndex index_;  // over side_'s weights
  FootruleReference reference_;  // the top K at the last model update
  double last_distance_ = 0.0;
};

struct ModCOptions {
  /// Fraction ρ of recent documents fed to the shadow model.
  double rho = 0.1;
  /// Trigger angle α in degrees (paper: 5° for RSVM-IE, 30° for BAgg-IE).
  double alpha_degrees = 5.0;
};

/// Mod-C: clones the ranking model at each update; routes a fraction ρ of
/// recent documents into the clone; triggers when the angle between the
/// clone's and the frozen model's weight vectors exceeds α. A check reads
/// the clone through one visit of its non-zero weights against the frozen
/// weights and norm taken at the update, so it never materializes a model.
class ModCDetector : public UpdateDetector {
 public:
  explicit ModCDetector(ModCOptions options = {}, uint64_t seed = 53)
      : options_(options), rng_(seed) {}

  void OnModelUpdated(const DocumentRanker& ranker,
                      const std::vector<LabeledExample>& absorbed) override;
  bool Observe(const SparseVector& features, bool useful,
               const DocumentRanker& ranker) override;
  std::string name() const override { return "Mod-C"; }

  double LastStatistic() const override { return last_angle_; }

 private:
  ModCOptions options_;
  Rng rng_;
  std::unique_ptr<DocumentRanker> shadow_;
  WeightVector frozen_weights_;
  double frozen_norm_ = 0.0;  // ‖frozen_weights_‖
  double last_angle_ = 0.0;
};

struct FeatSOptions {
  /// The paper uses γ = 0.01 on its feature scale; our documents are
  /// ℓ2-normalized (squared distances in [0, 2]), so the width is rescaled
  /// to keep the kernel discriminative.
  OneClassSvmOptions svm = {.gamma = 8.0, .lambda = 0.01, .budget = 128};
  /// Trigger threshold on F = 1 - S (paper: τ = 0.55).
  double threshold = 0.55;
  /// Minimum documents between checks (paper: 700).
  size_t min_docs_between_checks = 700;
  /// Sliding window of recent documents evaluated for inlier fraction S.
  size_t window = 200;
  /// Inlier margin = this quantile of the training documents' decision
  /// values, recalibrated at every model update. Read clamped into
  /// [0, 1], with NaN as 0.
  double margin_quantile = 0.45;
};

/// Feat-S: feature-shift detection with an online Gaussian-kernel one-class
/// SVM (Glazer et al., ICPR'12, as adapted by the paper).
class FeatSDetector : public UpdateDetector {
 public:
  explicit FeatSDetector(FeatSOptions options = {})
      : options_(options), svm_(options.svm) {}

  void OnModelUpdated(const DocumentRanker& ranker,
                      const std::vector<LabeledExample>& absorbed) override;
  bool Observe(const SparseVector& features, bool useful,
               const DocumentRanker& ranker) override;
  std::string name() const override { return "Feat-S"; }

  double LastStatistic() const override { return last_shift_; }

 private:
  FeatSOptions options_;
  OneClassSvm svm_;
  std::deque<uint8_t> recent_inlier_;  // sliding window, O(1) push/evict
  size_t inlier_sum_ = 0;              // running count of inliers in window
  size_t since_check_ = 0;
  double last_shift_ = 0.0;
  double margin_ = 0.0;
};

}  // namespace ie
