#include "learn/bagging.h"

#include <algorithm>

namespace ie {

BaggingCommittee::BaggingCommittee(BaggingOptions options, uint64_t seed)
    : options_(options), rng_(seed) {
  members_.assign(options_.committee_size, OnlineBinarySvm(options_.sgd));
  states_.resize(options_.committee_size);
}

double BaggingCommittee::Score(const SparseVector& x) const {
  double s = 0.0;
  for (const OnlineBinarySvm& member : members_) {
    s += member.Confidence(x);
  }
  return s;
}

void BaggingCommittee::PoolAdd(Pool& pool, const SparseVector& x) {
  if (pool.size() < options_.balance_pool_capacity) {
    pool.push_back(std::make_shared<const SparseVector>(x));
  } else {
    pool[rng_.NextBounded(pool.size())] =
        std::make_shared<const SparseVector>(x);
  }
}

void BaggingCommittee::TrainInitial(
    const std::vector<LabeledExample>& examples) {
  // Disjoint shards: shuffle, then deal round-robin so each member sees a
  // different slice of the sample (and hence a different feature subspace).
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.Shuffle(order);

  std::vector<std::vector<LabeledExample>> shards(members_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    shards[i % members_.size()].push_back(examples[order[i]]);
  }

  for (size_t m = 0; m < members_.size(); ++m) {
    std::vector<LabeledExample>& shard = shards[m];
    // Balance labels by oversampling the minority class.
    std::vector<const LabeledExample*> pos, neg;
    for (const LabeledExample& ex : shard) {
      (ex.label > 0 ? pos : neg).push_back(&ex);
    }
    std::vector<LabeledExample> balanced = shard;
    if (!pos.empty() && !neg.empty()) {
      auto& minority = pos.size() < neg.size() ? pos : neg;
      const size_t deficit =
          std::max(pos.size(), neg.size()) - minority.size();
      for (size_t i = 0; i < deficit; ++i) {
        balanced.push_back(*minority[rng_.NextBounded(minority.size())]);
      }
    }
    members_[m].TrainBatch(balanced, options_.initial_epochs, &rng_);
    // Seed the balance pools for the online phase.
    for (const LabeledExample& ex : shard) {
      auto& state = states_[m];
      if (ex.label > 0) {
        ++state.positives_seen;
        PoolAdd(state.positive_pool, ex.features);
      } else {
        ++state.negatives_seen;
        PoolAdd(state.negative_pool, ex.features);
      }
    }
  }
}

void BaggingCommittee::Observe(const SparseVector& x, bool useful) {
  const size_t m = next_member_;
  next_member_ = (next_member_ + 1) % members_.size();
  OnlineBinarySvm& member = members_[m];
  MemberState& state = states_[m];

  member.Update(x, useful ? 1 : -1);
  if (useful) {
    ++state.positives_seen;
    PoolAdd(state.positive_pool, x);
  } else {
    ++state.negatives_seen;
    PoolAdd(state.negative_pool, x);
  }

  // Keep the member's label exposure balanced: replay one stored example of
  // the under-represented class when the counts diverge.
  if (state.positives_seen + state.negatives_seen < 10) return;
  const bool pos_minority = state.positives_seen < state.negatives_seen;
  auto& pool = pos_minority ? state.positive_pool : state.negative_pool;
  if (pool.empty()) return;
  const double ratio =
      static_cast<double>(
          std::min(state.positives_seen, state.negatives_seen)) /
      static_cast<double>(
          std::max(state.positives_seen, state.negatives_seen));
  if (ratio < 0.8) {
    const SparseVector& replay = *pool[rng_.NextBounded(pool.size())];
    member.Update(replay, pos_minority ? 1 : -1);
    if (pos_minority) {
      ++state.positives_seen;
    } else {
      ++state.negatives_seen;
    }
  }
}

size_t BaggingCommittee::NonZeroCount(double eps) const {
  size_t n = 0;
  for (const OnlineBinarySvm& member : members_) {
    n += member.NonZeroCount(eps);
  }
  return n;
}

}  // namespace ie
