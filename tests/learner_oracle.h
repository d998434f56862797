// The reference learner — the oracle for ElasticNetSgd's memoized decay
// (DESIGN.md §18). It is the elastic-net SGD arithmetic as it stood before
// the memos: every read of a weight calls std::exp once, Score and the
// gradient steps included, and the bulk passes walk every stored feature
// through that read. ElasticNetSgd must match it bit for bit after every
// operation (LearnerOracleTest in tests/learn_test.cc steps both in
// lockstep). Header-only, like tests/detector_oracle.h. Its arithmetic is
// the reference: change it only together with the product code, operation
// for operation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "learn/elastic_net_sgd.h"
#include "text/sparse_vector.h"

namespace ie::test {

class ReferenceElasticNetSgd {
 public:
  explicit ReferenceElasticNetSgd(ElasticNetOptions options)
      : options_(options) {
    cum_log_decay_.push_back(0.0);
    cum_l1_.push_back(0.0);
  }

  double Score(const SparseVector& x) const {
    double s = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      s += CurrentWeight(x.id(i)) * static_cast<double>(x.value(i));
    }
    return s;
  }

  bool Step(const SparseVector& x, int y) {
    const double margin = static_cast<double>(y) * Score(x);
    BeginStep();
    if (margin >= 1.0) return false;
    ApplyGradient(x, Eta(steps_) * static_cast<double>(y));
    return true;
  }

  bool PairStep(const SparseVector& pos, const SparseVector& neg) {
    const double margin = Score(pos) - Score(neg);
    BeginStep();
    if (margin >= 1.0) return false;
    const double eta = Eta(steps_);
    ApplyGradient(pos, eta);
    ApplyGradient(neg, -eta);
    return true;
  }

  void ForcedStep(const SparseVector& x, double gradient_factor) {
    BeginStep();
    if (!x.empty() && gradient_factor != 0.0) {
      ApplyGradient(x, Eta(steps_) * gradient_factor);
    }
  }

  size_t steps() const { return steps_; }

  double CurrentWeight(uint32_t id) const {
    if (id >= values_.size()) return 0.0;
    double v = values_[id];
    if (v == 0.0) return 0.0;
    const uint32_t u = last_step_[id];
    v *= std::exp(cum_log_decay_[steps_] - cum_log_decay_[u]);
    const double pending_l1 = cum_l1_[steps_] - cum_l1_[u];
    if (v > pending_l1) return v - pending_l1;
    if (v < -pending_l1) return v + pending_l1;
    return 0.0;
  }

  double OrderKey(uint32_t id) const {
    if (id >= values_.size()) return -HUGE_VAL;
    return std::log(std::fabs(values_[id])) - cum_log_decay_[last_step_[id]];
  }

  WeightVector DenseWeights() const {
    WeightVector w(values_.size());
    for (uint32_t id = 0; id < values_.size(); ++id) {
      const double v = CurrentWeight(id);
      if (v != 0.0) w.Set(id, v);
    }
    return w;
  }

  void CommitAll() {
    for (uint32_t id = 0; id < values_.size(); ++id) {
      values_[id] = CurrentWeight(id);
      last_step_[id] = static_cast<uint32_t>(steps_);
    }
  }

  size_t NonZeroCount(double eps = 1e-9) const {
    size_t n = 0;
    for (uint32_t id = 0; id < values_.size(); ++id) {
      if (std::fabs(CurrentWeight(id)) > eps) ++n;
    }
    return n;
  }

 private:
  double L2Eff() const {
    return std::max(options_.lambda_all * options_.lambda_l2_share, 1e-6);
  }
  double L1Eff() const {
    return options_.lambda_all * (1.0 - options_.lambda_l2_share);
  }
  double Eta(size_t t) const {
    const double effective =
        static_cast<double>(std::min(t, options_.step_clamp));
    return 1.0 / (L2Eff() * (effective + options_.step_offset));
  }

  void BeginStep() {
    ++steps_;
    const double eta = Eta(steps_);
    const double decay = 1.0 - eta * L2Eff();
    cum_log_decay_.push_back(cum_log_decay_.back() + std::log(decay));
    cum_l1_.push_back(cum_l1_.back() + eta * L1Eff());
  }

  void ApplyGradient(const SparseVector& x, double factor) {
    for (size_t i = 0; i < x.size(); ++i) {
      const uint32_t id = x.id(i);
      if (id >= values_.size()) {
        values_.resize(id + 1, 0.0);
        last_step_.resize(id + 1, static_cast<uint32_t>(steps_));
      }
      values_[id] = CurrentWeight(id);
      last_step_[id] = static_cast<uint32_t>(steps_);
      values_[id] += factor * static_cast<double>(x.value(i));
    }
  }

  ElasticNetOptions options_;
  size_t steps_ = 0;
  std::vector<double> values_;
  std::vector<uint32_t> last_step_;
  std::vector<double> cum_log_decay_;
  std::vector<double> cum_l1_;
};

}  // namespace ie::test
