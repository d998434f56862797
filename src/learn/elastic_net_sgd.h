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

#include <cmath>
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

  /// Number of stored features: every id a step has touched is below it.
  size_t dimension() const { return values_.size(); }

  /// Current value of feature id, with its pending lazy regularization
  /// applied (0 past the stored dimension). Does not mutate state.
  double CurrentWeight(uint32_t id) const;

  /// Order key of feature id: ln|v| − D[u], with v its committed value, u
  /// its last-touch step and D the cumulative log-decay. Without ℓ1
  /// (L1Eff() == 0), |CurrentWeight(id)| = |v|·exp(D[steps()] − D[u]), so
  /// the keys of untouched features rank their weights up to rounding, and
  /// a key changes only when its feature is touched. -inf for a zero value.
  double OrderKey(uint32_t id) const;

  /// Reads current weights during one pass over an unchanged learner:
  /// Weight(id) is bit-equal to CurrentWeight(id), but the decay factor
  /// exp(D[t] − D[u]) is computed once per distinct last-touch step u. The
  /// memo lives in the reader, in the caller's frame, never in the
  /// learner, so concurrent readers of one learner share nothing.
  class Reader {
   public:
    explicit Reader(const ElasticNetSgd& sgd)
        : sgd_(sgd),
          // Every last-touch step lies in [commit_step_, steps_].
          decay_(sgd.steps_ - sgd.commit_step_ + 1, -1.0) {}

    double Weight(uint32_t id) {
      if (id >= sgd_.values_.size()) return 0.0;
      return sgd_.WeightAt(id, [this](uint32_t u) {
        double& factor = decay_[u - sgd_.commit_step_];
        // std::exp never returns a negative value, so -1 marks "unset".
        if (factor < 0.0) factor = sgd_.DecayFactor(u);
        return factor;
      });
    }

   private:
    const ElasticNetSgd& sgd_;
    std::vector<double> decay_;  // by last-touch step − commit_step_
  };

  /// Calls fn(id, w) for every non-zero current weight w, in ascending id
  /// order, without materializing the model; w is bit-equal to
  /// CurrentWeight(id). DenseWeights, NonZeroCount and the rankers' model
  /// visits all read the weights through this pass.
  template <typename Fn>
  void ForEachWeight(Fn&& fn) const {
    Reader reader(*this);
    for (uint32_t id = 0; id < values_.size(); ++id) {
      const double w = reader.Weight(id);
      if (w != 0.0) fn(id, w);
    }
  }

  /// Materializes all pending lazy regularization and returns a dense
  /// snapshot of the weights (dimension: every stored feature).
  /// O(dimension).
  WeightVector DenseWeights() const;

  /// Commits every feature's pending regularization in place: each stored
  /// value becomes exactly what CurrentWeight reports, so DenseWeights()
  /// is unchanged, while later lazy updates start from the committed
  /// values. The rankers commit at every scoring snapshot. O(dimension).
  void CommitAll();

  /// Count of features with |w| above eps ≥ 0, after materialization.
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

  /// exp(D[steps_] − D[u]): the lazy ℓ2 decay of a weight last touched at
  /// step u. Every memo of it stores exactly this double.
  double DecayFactor(uint32_t u) const {
    return std::exp(cum_log_decay_[steps_] - cum_log_decay_[u]);
  }

  /// The current value of stored feature id, given decay(u) ==
  /// DecayFactor(u): the one home of the lazy-regularization arithmetic.
  template <typename Decay>
  double WeightAt(uint32_t id, Decay&& decay) const {
    double v = values_[id];
    if (v == 0.0) return 0.0;
    const uint32_t u = last_step_[id];
    v *= decay(u);
    const double pending_l1 = cum_l1_[steps_] - cum_l1_[u];
    if (v > pending_l1) return v - pending_l1;
    if (v < -pending_l1) return v + pending_l1;
    return 0.0;
  }

  void EnsureFeature(uint32_t id);
  /// Starts step t = steps_+1: extends the cumulative decay/penalty tables.
  void BeginStep();
  void ApplyGradient(const SparseVector& x, double factor);

  ElasticNetOptions options_;
  size_t steps_ = 0;
  size_t commit_step_ = 0;  // steps_ at the last CommitAll; ≤ every last_step_

  std::vector<double> values_;      // committed weights (as of last touch)
  std::vector<uint32_t> last_step_; // step each feature was last committed at
  // cum_log_decay_[t] = Σ_{τ=1..t} ln(1 - η_τ λ2eff);  [0] = 0.
  std::vector<double> cum_log_decay_;
  // cum_l1_[t] = Σ_{τ=1..t} η_τ λ1eff;  [0] = 0.
  std::vector<double> cum_l1_;
};

}  // namespace ie
