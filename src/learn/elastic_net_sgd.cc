#include "learn/elastic_net_sgd.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"

namespace ie {

namespace {
constexpr double kMinL2 = 1e-6;
}

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
  double v = values_[id];
  if (v == 0.0) return 0.0;
  const uint32_t u = last_step_[id];
  v *= std::exp(cum_log_decay_[steps_] - cum_log_decay_[u]);
  const double pending_l1 = cum_l1_[steps_] - cum_l1_[u];
  if (v > pending_l1) return v - pending_l1;
  if (v < -pending_l1) return v + pending_l1;
  return 0.0;
}

void ElasticNetSgd::Refresh(uint32_t id) {
  EnsureFeature(id);
  values_[id] = CurrentWeight(id);
  last_step_[id] = static_cast<uint32_t>(steps_);
}

double ElasticNetSgd::Score(const SparseVector& x) const {
  const uint32_t* ids = x.ids();
  const float* vals = x.values();
  double s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    s += CurrentWeight(ids[i]) * static_cast<double>(vals[i]);
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
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t id = ids[i];
    Refresh(id);
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
  for (uint32_t id = 0; id < values_.size(); ++id) {
    values_[id] = CurrentWeight(id);
    last_step_[id] = static_cast<uint32_t>(steps_);
  }
}

WeightVector ElasticNetSgd::DenseWeights() const {
  WeightVector w(values_.size());
  for (uint32_t id = 0; id < values_.size(); ++id) {
    const double v = CurrentWeight(id);
    if (v != 0.0) w.Set(id, v);
  }
  return w;
}

size_t ElasticNetSgd::NonZeroCount(double eps) const {
  size_t n = 0;
  for (uint32_t id = 0; id < values_.size(); ++id) {
    if (std::fabs(CurrentWeight(id)) > eps) ++n;
  }
  return n;
}

}  // namespace ie
