#include "learn/elastic_net_sgd.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"

namespace ie {

namespace {

constexpr double kMinL2 = 1e-6;

/// A call-local memo of the decay factor for one step: direct-mapped on
/// the last-touch step u over 64 slots. A miss calls the learner's
/// DecayFactor, so every factor is the very double std::exp returns. Score
/// and ApplyGradient read a few dozen features, whose steps repeat (all
/// features untouched since the last commit share one). Construction
/// clears one word, so short documents pay next to nothing for the memo.
template <typename Factor>
class DecayMemo {
 public:
  explicit DecayMemo(Factor factor) : factor_(factor) {}

  double operator()(uint32_t u) {
    const uint32_t slot = u % 64;
    const uint64_t bit = uint64_t{1} << slot;
    if ((filled_ & bit) == 0 || steps_[slot] != u) {
      filled_ |= bit;
      steps_[slot] = u;
      factors_[slot] = factor_(u);
    }
    return factors_[slot];
  }

 private:
  Factor factor_;
  uint64_t filled_ = 0;  // bit s is set once slot s holds a step
  // Left uninitialized: a slot is read only after filled_ marks it
  // written, and clearing 768 bytes per call would cost short documents
  // more than the memo saves them.
  std::array<uint32_t, 64> steps_;
  std::array<double, 64> factors_;
};

}  // namespace

ElasticNetSgd::ElasticNetSgd(ElasticNetOptions options)
    : options_(options) {
  cum_log_decay_.push_back(0.0);
  cum_l1_.push_back(0.0);
}

double ElasticNetSgd::L2Eff() const {
  return std::max(options_.lambda_all * options_.lambda_l2_share, kMinL2);
}

double ElasticNetSgd::L1Eff() const {
  return options_.lambda_all * (1.0 - options_.lambda_l2_share);
}

double ElasticNetSgd::Eta(size_t t) const {
  const double effective =
      static_cast<double>(std::min(t, options_.step_clamp));
  return 1.0 / (L2Eff() * (effective + options_.step_offset));
}

void ElasticNetSgd::EnsureFeature(uint32_t id) {
  if (id >= values_.size()) {
    values_.resize(id + 1, 0.0);
    last_step_.resize(id + 1, static_cast<uint32_t>(steps_));
  }
}

double ElasticNetSgd::CurrentWeight(uint32_t id) const {
  if (id >= values_.size()) return 0.0;
  return WeightAt(id, [this](uint32_t u) { return DecayFactor(u); });
}

double ElasticNetSgd::OrderKey(uint32_t id) const {
  if (id >= values_.size()) return -HUGE_VAL;
  return std::log(std::fabs(values_[id])) - cum_log_decay_[last_step_[id]];
}

double ElasticNetSgd::Score(const SparseVector& x) const {
  const uint32_t* ids = x.ids();
  const float* vals = x.values();
  DecayMemo decay([this](uint32_t u) { return DecayFactor(u); });
  double s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double w = ids[i] < values_.size() ? WeightAt(ids[i], decay) : 0.0;
    s += w * static_cast<double>(vals[i]);
  }
  return s;
}

void ElasticNetSgd::BeginStep() {
  IE_METRIC_COUNT("learn.pegasos_steps");
  ++steps_;
  const double eta = Eta(steps_);
  const double decay = 1.0 - eta * L2Eff();
  cum_log_decay_.push_back(cum_log_decay_.back() + std::log(decay));
  cum_l1_.push_back(cum_l1_.back() + eta * L1Eff());
}

void ElasticNetSgd::ApplyGradient(const SparseVector& x, double factor) {
  const uint32_t* ids = x.ids();
  const float* vals = x.values();
  // steps_ is fixed for the whole call, so one memo serves every feature.
  DecayMemo decay([this](uint32_t u) { return DecayFactor(u); });
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t id = ids[i];
    // Commit the pending decay and ℓ1, then take the gradient step.
    EnsureFeature(id);
    values_[id] = WeightAt(id, decay);
    last_step_[id] = static_cast<uint32_t>(steps_);
    values_[id] += factor * static_cast<double>(vals[i]);
  }
}

bool ElasticNetSgd::Step(const SparseVector& x, int y) {
  const double margin = static_cast<double>(y) * Score(x);
  BeginStep();
  if (margin >= 1.0) return false;
  IE_METRIC_COUNT("learn.margin_violations");
  ApplyGradient(x, Eta(steps_) * static_cast<double>(y));
  return true;
}

void ElasticNetSgd::ForcedStep(const SparseVector& x,
                               double gradient_factor) {
  BeginStep();
  if (!x.empty() && gradient_factor != 0.0) {
    ApplyGradient(x, Eta(steps_) * gradient_factor);
  }
}

bool ElasticNetSgd::PairStep(const SparseVector& pos,
                             const SparseVector& neg) {
  const double margin = Score(pos) - Score(neg);
  BeginStep();
  if (margin >= 1.0) return false;
  IE_METRIC_COUNT("learn.margin_violations");
  const double eta = Eta(steps_);
  ApplyGradient(pos, eta);
  ApplyGradient(neg, -eta);
  return true;
}

void ElasticNetSgd::CommitAll() {
  IE_TRACE_SCOPE("learn.commit");
  Reader reader(*this);
  for (uint32_t id = 0; id < values_.size(); ++id) {
    values_[id] = reader.Weight(id);
    last_step_[id] = static_cast<uint32_t>(steps_);
  }
  commit_step_ = steps_;
}

WeightVector ElasticNetSgd::DenseWeights() const {
  WeightVector w(values_.size());
  ForEachWeight([&w](uint32_t id, double v) { w.Set(id, v); });
  return w;
}

size_t ElasticNetSgd::NonZeroCount(double eps) const {
  size_t n = 0;
  ForEachWeight([eps, &n](uint32_t, double v) {
    if (std::fabs(v) > eps) ++n;
  });
  return n;
}

}  // namespace ie
