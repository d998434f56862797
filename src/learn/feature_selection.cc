#include "learn/feature_selection.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "common/logging.h"

namespace ie {

namespace {

/// TopKFeatures's order: descending weight, ties by ascending id. A
/// function object, not a function, so the sorts inline the comparison.
struct Better {
  bool operator()(const WeightedFeature& a, const WeightedFeature& b) const {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.id < b.id;
  }
};

/// Rounding slack of the order keys (DESIGN.md §17): 1e-9 in the log
/// domain, scaled with the key so it stays far above the key's and the
/// weight's rounding error (a few ulps of the key) at any magnitude.
double KeySlack(double key) { return 1e-9 * (1.0 + std::fabs(key)); }

}  // namespace

std::vector<WeightedFeature> TopKFeatures(const WeightVector& w, size_t k) {
  std::vector<WeightedFeature> all;
  all.reserve(w.dimension() / 8 + 8);
  for (uint32_t id = 0; id < w.dimension(); ++id) {
    const double v = std::fabs(w.Get(id));
    if (v > 0.0) all.push_back({id, v});
  }
  if (all.size() > k) {
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), Better());
    all.resize(k);
  } else {
    std::sort(all.begin(), all.end(), Better());
  }
  return all;
}

void OrderKeyIndex::Rekey(const ElasticNetSgd& sgd, const SparseVector& x) {
  const uint32_t* ids = x.ids();
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t id = ids[i];
    if (id >= keys_.size()) keys_.resize(id + 1, -HUGE_VAL);
    double key = sgd.OrderKey(id);
    if (std::isnan(key)) key = -HUGE_VAL;  // a NaN weight is never listed
    double& slot = keys_[id];
    if (key == slot) continue;
    if (slot == -HUGE_VAL) {
      order_.emplace(key, id);
    } else {
      auto node = order_.extract({slot, id});
      if (key != -HUGE_VAL) {
        node.value() = {key, id};
        order_.insert(std::move(node));
      }
    }
    slot = key;
  }
}

std::vector<WeightedFeature> OrderKeyIndex::TopK(const ElasticNetSgd& sgd,
                                                 size_t k) const {
  IE_CHECK(sgd.L1Eff() == 0.0) << "order keys rank weights only without ℓ1";
  std::vector<WeightedFeature> top;
  if (k == 0) return top;
  // Walk down the keys collecting exact weights. Every feature past the
  // stop has a key below each of the first k candidates' by more than the
  // slack, hence a strictly smaller weight, so it cannot be in the top k.
  // The bound needs the rounding to be relative: a subnormal candidate
  // turns the stop off.
  double stop_below = -HUGE_VAL;
  bool may_stop = true;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const auto [key, id] = *it;
    if (may_stop && key < stop_below) break;
    const double weight = std::fabs(sgd.CurrentWeight(id));
    if (!(weight > 0.0)) continue;  // underflowed: TopKFeatures skips it
    if (weight < DBL_MIN) may_stop = false;
    top.push_back({id, weight});
    if (top.size() == k) stop_below = key - KeySlack(key);
  }
  std::sort(top.begin(), top.end(), Better());
  if (top.size() > k) top.resize(k);
  return top;
}

namespace {

/// One list's distinct features, sorted by id: `rank` is the position of
/// the feature's first occurrence among the list's distinct ids, `weight`
/// its weight normalized by the list's sum.
struct RankedFeature {
  uint32_t id;
  size_t rank;
  double weight;
};

std::vector<RankedFeature> DistinctById(
    const std::vector<WeightedFeature>& list) {
  std::vector<RankedFeature> out(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    out[i] = {list[i].id, i, list[i].weight};
  }
  std::sort(out.begin(), out.end(),
            [](const RankedFeature& a, const RankedFeature& b) {
              return a.id != b.id ? a.id < b.id : a.rank < b.rank;
            });
  // Duplicate ids (possible for ad-hoc callers) keep their first, i.e.
  // highest-ranked, occurrence so the distance stays symmetric.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const RankedFeature& a, const RankedFeature& b) {
                          return a.id == b.id;
                        }),
            out.end());
  // Renumber the kept occurrences by list order, and sum their weights in
  // list order.
  constexpr size_t kDropped = SIZE_MAX;
  std::vector<size_t> rank_of(list.size(), kDropped);
  for (const RankedFeature& f : out) rank_of[f.rank] = 0;
  size_t next = 0;
  double sum = 0.0;
  for (size_t i = 0; i < list.size(); ++i) {
    if (rank_of[i] == kDropped) continue;
    rank_of[i] = next++;
    sum += list[i].weight;
  }
  for (RankedFeature& f : out) {
    f.rank = rank_of[f.rank];
    if (sum > 0.0) f.weight /= sum;
  }
  return out;
}

}  // namespace

double GeneralizedFootrule(const std::vector<WeightedFeature>& a,
                           const std::vector<WeightedFeature>& b) {
  if (a.empty() && b.empty()) return 0.0;
  const std::vector<RankedFeature> ra = DistinctById(a);
  const std::vector<RankedFeature> rb = DistinctById(b);
  const size_t tail_a = ra.size();
  const size_t tail_b = rb.size();

  // The union with combined weights, in summation order: a's ids
  // ascending, then b-only ids ascending. An absent id takes the tail rank.
  struct Item {
    double weight;
    size_t pos_a;
    size_t pos_b;
  };
  std::vector<Item> items;
  items.reserve(tail_a + tail_b);
  std::vector<size_t> b_only;
  size_t j = 0;
  for (const RankedFeature& fa : ra) {
    for (; j < tail_b && rb[j].id < fa.id; ++j) b_only.push_back(j);
    if (j < tail_b && rb[j].id == fa.id) {
      items.push_back(
          {0.5 * (fa.weight + rb[j].weight), fa.rank, rb[j].rank});
      ++j;
    } else {
      items.push_back({0.5 * (fa.weight + 0.0), fa.rank, tail_b});
    }
  }
  for (; j < tail_b; ++j) b_only.push_back(j);
  const size_t num_a = items.size();
  for (size_t idx : b_only) {
    items.push_back({0.5 * (0.0 + rb[idx].weight), tail_a, rb[idx].rank});
  }

  // Prefix weight sums in each list's order. A list's own items come by
  // rank; the items it lacks share the tail rank and follow by id, which
  // is their order in `items`.
  std::vector<double> pa(items.size());
  std::vector<double> pb(items.size());
  std::vector<size_t> by_rank(tail_a);
  for (size_t i = 0; i < num_a; ++i) by_rank[items[i].pos_a] = i;
  double run = 0.0;
  auto accumulate = [&](std::vector<double>& prefix, size_t i) {
    run += items[i].weight;
    prefix[i] = run;
  };
  for (size_t i : by_rank) accumulate(pa, i);
  for (size_t i = num_a; i < items.size(); ++i) accumulate(pa, i);
  by_rank.assign(tail_b, 0);
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].pos_b < tail_b) by_rank[items[i].pos_b] = i;
  }
  run = 0.0;
  for (size_t i : by_rank) accumulate(pb, i);
  for (size_t i = 0; i < num_a; ++i) {
    if (items[i].pos_b == tail_b) accumulate(pb, i);
  }

  double f = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    f += items[i].weight * std::fabs(pa[i] - pb[i]);
  }
  return f;
}

}  // namespace ie
