// Online elastic-net-regularized SGD with Pegasos-style steps — the shared
// optimization core of BAgg-IE and RSVM-IE (paper Section 3.1):
//
//   argmin_w  λAll(λL2/2 ||w||² + (1-λL2) ||w||₁) + Σ hinge-loss
//
// The ℓ2 part uses Pegasos decay steps (Shalev-Shwartz et al., ICML'07);
// the ℓ1 part uses lazily applied cumulative soft-thresholding in the style
// of Tsuruoka et al. (ACL'09), which the paper cites for ℓ1 SGD. Both are
// applied lazily per feature, so a gradient step costs O(nnz(x)) even with
// hundreds of thousands of features — this is what makes continuous online
// model adaptation affordable (the paper's efficiency requirement).
#pragma once

#include <cstdint>
#include <vector>

#include "text/sparse_vector.h"

namespace ie {

struct ElasticNetOptions {
  /// λAll: weight of the whole regularizer vs the loss.
  double lambda_all = 0.1;
  /// λL2 ∈ [0,1]: share of ℓ2 within the regularizer; 1-λL2 goes to ℓ1.
  double lambda_l2_share = 0.99;
  /// Learning-rate offset: η_t = 1 / (λ2eff · (t + offset)); keeps the
  /// first decay factors away from zero.
  double step_offset = 2.0;
  /// Clamp on the effective step count in the learning-rate schedule:
  /// η_t = 1 / (λ2eff · (min(t, clamp) + offset)). Pegasos's 1/(λt) rate is
  /// right for converging on a fixed sample, but it starves *online
  /// adaptation*: after thousands of initial steps, new documents cannot
  /// move the model (and Mod-C's shadow model cannot drift, so updates
  /// never fire). The clamp floors the rate, giving bounded exponential
  /// forgetting — the standard choice for tracking drift.
  size_t step_clamp = SIZE_MAX;
};

class ElasticNetSgd {
 public:
  explicit ElasticNetSgd(ElasticNetOptions options = {});

  /// Current margin score w·x (no bias; callers track bias separately).
  double Score(const SparseVector& x) const;

  /// One hinge-loss step on labeled example (x, y ∈ {-1,+1}).
  /// Returns true when the margin was violated (gradient applied).
  bool Step(const SparseVector& x, int y);

  /// One pairwise hinge step on w·(pos - neg) ≥ 1 (RankSVM /
  /// stochastic pairwise descent). Returns true on margin violation.
  bool PairStep(const SparseVector& pos, const SparseVector& neg);

  /// Advances the regularization clock and applies the hinge gradient
  /// unconditionally (callers that evaluate the margin themselves, e.g.
  /// with a bias term, use this). Pass an empty x for a decay-only step.
  void ForcedStep(const SparseVector& x, double gradient_factor);

  /// Number of SGD steps taken so far.
  size_t steps() const { return steps_; }

  /// Current value of feature id, with its pending lazy regularization
  /// applied (0 past the stored dimension). Does not mutate state.
  double CurrentWeight(uint32_t id) const;

  /// Order key of feature id: ln|v| − D[u], with v its committed value, u
  /// its last-touch step and D the cumulative log-decay. Without ℓ1
  /// (L1Eff() == 0), |CurrentWeight(id)| = |v|·exp(D[steps()] − D[u]), so
  /// the keys of untouched features rank their weights up to rounding, and
  /// a key changes only when its feature is touched. -inf for a zero value.
  double OrderKey(uint32_t id) const;

  /// Materializes all pending lazy regularization and returns a dense
  /// snapshot of the weights. O(dimension).
  WeightVector DenseWeights() const;

  /// Commits every feature's pending regularization in place: each stored
  /// value becomes exactly what CurrentWeight reports, so DenseWeights()
  /// is unchanged, while later lazy updates start from the committed
  /// values. The rankers commit at every scoring snapshot. O(dimension).
  void CommitAll();

  /// Count of features with |w| above eps, after materialization.
  size_t NonZeroCount(double eps = 1e-9) const;

  const ElasticNetOptions& options() const { return options_; }

  /// Effective ℓ1 strength λAll·(1 − λL2); 0 for a pure-ℓ2 learner.
  double L1Eff() const;

  /// Copyable: Mod-C clones the model to train a shadow copy.
  ElasticNetSgd(const ElasticNetSgd&) = default;
  ElasticNetSgd& operator=(const ElasticNetSgd&) = default;

 private:
  /// Effective ℓ2 strength (floored to keep η finite for λL2 = 0).
  double L2Eff() const;
  double Eta(size_t t) const;

  /// Commits pending decay + ℓ1 for feature id up to the current step.
  void Refresh(uint32_t id);
  void EnsureFeature(uint32_t id);
  /// Starts step t = steps_+1: extends the cumulative decay/penalty tables.
  void BeginStep();
  void ApplyGradient(const SparseVector& x, double factor);

  ElasticNetOptions options_;
  size_t steps_ = 0;

  std::vector<double> values_;      // committed weights (as of last touch)
  std::vector<uint32_t> last_step_; // step each feature was last committed at
  // cum_log_decay_[t] = Σ_{τ=1..t} ln(1 - η_τ λ2eff);  [0] = 0.
  std::vector<double> cum_log_decay_;
  // cum_l1_[t] = Σ_{τ=1..t} η_τ λ1eff;  [0] = 0.
  std::vector<double> cum_l1_;
};

}  // namespace ie
