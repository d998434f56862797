#include "learn/rank_svm.h"

namespace ie {

void OnlineRankSvm::ReservoirAdd(Pool& pool, size_t& seen,
                                 const SparseVector& x) {
  ++seen;
  if (pool.size() < options_.pool_capacity) {
    pool.push_back(std::make_shared<const SparseVector>(x));
    return;
  }
  const size_t j = static_cast<size_t>(rng_.NextBounded(seen));
  if (j < pool.size()) pool[j] = std::make_shared<const SparseVector>(x);
}

void OnlineRankSvm::Observe(const SparseVector& x, bool useful) {
  if (useful) {
    ReservoirAdd(useful_, useful_seen_, x);
  } else {
    ReservoirAdd(useless_, useless_seen_, x);
  }
  TrainPairs(static_cast<size_t>(options_.steps_per_observation));
}

void OnlineRankSvm::TrainPairs(size_t n) {
  if (useful_.empty() || useless_.empty()) return;
  for (size_t i = 0; i < n; ++i) {
    const SparseVector& pos = *useful_[rng_.NextBounded(useful_.size())];
    const SparseVector& neg = *useless_[rng_.NextBounded(useless_.size())];
    sgd_.PairStep(pos, neg);
  }
}

}  // namespace ie
