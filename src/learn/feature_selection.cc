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
  // A keyed pair belongs to the window exactly when it is not below the
  // floor; a -inf floor key admits every keyed pair.
  const auto in_window = [this](const Entry& e) {
    return e.key != -HUGE_VAL && !Above()(floor_, e);
  };
  // Re-keys below the floor stop at the key array. The window's changes
  // are collected and merged in one pass: the old pairs of moved features
  // leave it, their new pairs at or above the floor enter it.
  leaving_.clear();
  entering_.clear();
  const uint32_t* ids = x.ids();
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t id = ids[i];
    if (id >= keys_.size()) keys_.resize(id + 1, -HUGE_VAL);
    double key = sgd.OrderKey(id);
    if (std::isnan(key)) key = -HUGE_VAL;  // a NaN weight is never listed
    double& slot = keys_[id];
    if (key == slot) continue;
    const Entry was{slot, id};
    const Entry now{key, id};
    slot = key;
    if (in_window(was)) leaving_.push_back(was);
    if (in_window(now)) entering_.push_back(now);
  }
  if (leaving_.empty() && entering_.empty()) return;
  std::sort(leaving_.begin(), leaving_.end(), Above());
  std::sort(entering_.begin(), entering_.end(), Above());
  merged_.clear();
  auto leave = leaving_.begin();
  auto enter = entering_.begin();
  for (const Entry& e : window_) {
    if (leave != leaving_.end() && leave->id == e.id && leave->key == e.key) {
      ++leave;
      continue;
    }
    for (; enter != entering_.end() && Above()(*enter, e); ++enter) {
      merged_.push_back(*enter);
    }
    merged_.push_back(e);
  }
  merged_.insert(merged_.end(), enter, entering_.end());
  window_.swap(merged_);
  // Entries that rose into the window grow it; past twice the target its
  // lower half is dropped and the floor rises to the last kept entry.
  if (target_ > 0 && window_.size() > 2 * target_) {
    window_.resize(target_);
    floor_ = window_.back();
  }
}

void OrderKeyIndex::Rebuild(size_t size) {
  ++rebuilds_;
  window_.clear();
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    if (keys_[id] != -HUGE_VAL) window_.push_back({keys_[id], id});
  }
  if (window_.size() > size) {
    const auto cut = window_.begin() + static_cast<long>(size);
    std::nth_element(window_.begin(), cut - 1, window_.end(), Above());
    window_.erase(cut, window_.end());
    std::sort(window_.begin(), window_.end(), Above());
    floor_ = window_.back();
  } else {
    std::sort(window_.begin(), window_.end(), Above());
    floor_ = {-HUGE_VAL, 0};
  }
}

bool OrderKeyIndex::Walk(const ElasticNetSgd& sgd, size_t k,
                         std::vector<WeightedFeature>& top) const {
  // Walk down the keys collecting exact weights. Every feature past the
  // stop has a key below each of the first k candidates' by more than the
  // slack, hence a strictly smaller weight, so it cannot be in the top k.
  // The bound needs the rounding to be relative: a subnormal candidate
  // turns the stop off.
  double stop_below = -HUGE_VAL;
  bool may_stop = true;
  for (const Entry& e : window_) {
    if (may_stop && e.key < stop_below) return true;
    const double weight = std::fabs(sgd.CurrentWeight(e.id));
    if (!(weight > 0.0)) continue;  // underflowed: TopKFeatures skips it
    if (weight < DBL_MIN) may_stop = false;
    top.push_back({e.id, weight});
    if (top.size() == k) stop_below = e.key - KeySlack(e.key);
  }
  // Every feature outside the window keys at most floor_.key, so the walk
  // is over if the window holds every pair or the next key would stop it.
  return floor_.key == -HUGE_VAL || (may_stop && floor_.key < stop_below);
}

std::vector<WeightedFeature> OrderKeyIndex::TopK(const ElasticNetSgd& sgd,
                                                 size_t k) {
  IE_CHECK(sgd.L1Eff() == 0.0) << "order keys rank weights only without ℓ1";
  std::vector<WeightedFeature> top;
  if (k == 0) return top;
  target_ = std::max(target_, 2 * k);
  top.reserve(std::min(k, window_.size()) + 1);
  // A walk that cannot prove its stop (fewer than k positive weights in
  // the window, a subnormal candidate, or k past the window) runs again
  // on the target's worth of highest keys, and then on every key.
  for (size_t size = target_; !Walk(sgd, k, top); size = SIZE_MAX) {
    top.clear();
    Rebuild(size);
  }
  // The walk met the candidates by key, which orders their weights up to
  // rounding, so an insertion sort finds them all but sorted.
  for (size_t i = 1; i < top.size(); ++i) {
    const WeightedFeature f = top[i];
    size_t j = i;
    for (; j > 0 && Better()(f, top[j - 1]); --j) top[j] = top[j - 1];
    top[j] = f;
  }
  if (top.size() > k) top.resize(k);
  return top;
}

FootruleReference::FootruleReference(const std::vector<WeightedFeature>& a)
    : by_id_(a.size()) {
  for (size_t i = 0; i < a.size(); ++i) {
    by_id_[i] = {a[i].id, static_cast<uint32_t>(i), a[i].weight};
  }
  std::sort(by_id_.begin(), by_id_.end(), [](const Ranked& x, const Ranked& y) {
    return x.id != y.id ? x.id < y.id : x.rank < y.rank;
  });
  // Duplicate ids keep their first, i.e. highest-ranked, occurrence so the
  // distance stays symmetric.
  by_id_.erase(std::unique(by_id_.begin(), by_id_.end(),
                           [](const Ranked& x, const Ranked& y) {
                             return x.id == y.id;
                           }),
               by_id_.end());
  // Renumber the kept occurrences by list order, and sum their weights in
  // list order.
  constexpr uint32_t kDropped = UINT32_MAX;
  std::vector<uint32_t> rank_of(a.size(), kDropped);
  for (const Ranked& f : by_id_) rank_of[f.rank] = 0;
  uint32_t next = 0;
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (rank_of[i] == kDropped) continue;
    rank_of[i] = next++;
    sum += a[i].weight;
  }
  by_rank_.resize(by_id_.size());
  if (!by_id_.empty()) {
    index_of_.assign(by_id_.back().id + size_t{1}, kAbsent);
  }
  for (uint32_t i = 0; i < by_id_.size(); ++i) {
    Ranked& f = by_id_[i];
    f.rank = rank_of[f.rank];
    if (sum > 0.0) f.weight /= sum;
    by_rank_[f.rank] = i;
    index_of_[f.id] = i;
  }
}

double FootruleReference::Distance(const std::vector<WeightedFeature>& b) {
  if (by_id_.empty() && b.empty()) return 0.0;
  constexpr uint32_t kNone = UINT32_MAX;
  const size_t num_a = by_id_.size();

  // The union's items are a's ids ascending, then the b-only ids
  // ascending. Each id of b keeps its first occurrence; a later one maps
  // to kNone.
  b_of_a_.assign(num_a, kNone);
  item_of_b_.resize(b.size());
  b_only_.clear();
  for (uint32_t j = 0; j < b.size(); ++j) {
    const uint32_t i =
        b[j].id < index_of_.size() ? index_of_[b[j].id] : kAbsent;
    if (i == kAbsent) {
      b_only_.emplace_back(b[j].id, j);
    } else if (b_of_a_[i] == kNone) {
      b_of_a_[i] = j;
      item_of_b_[j] = i;
    } else {
      item_of_b_[j] = kNone;
    }
  }
  std::sort(b_only_.begin(), b_only_.end());
  uint32_t num_items = static_cast<uint32_t>(num_a);
  for (size_t t = 0; t < b_only_.size(); ++t) {
    const bool repeat = t > 0 && b_only_[t].first == b_only_[t - 1].first;
    item_of_b_[b_only_[t].second] = repeat ? kNone : num_items++;
  }

  // b's weights are normalized by their sum, taken in list order over the
  // kept occurrences. Combined weights: an id absent from one list takes
  // 0 from it.
  double sum = 0.0;
  for (uint32_t j = 0; j < b.size(); ++j) {
    if (item_of_b_[j] != kNone) sum += b[j].weight;
  }
  const auto weight_b = [&b, sum](uint32_t j) {
    return sum > 0.0 ? b[j].weight / sum : b[j].weight;
  };
  item_weight_.resize(num_items);
  for (size_t i = 0; i < num_a; ++i) {
    const uint32_t j = b_of_a_[i];
    item_weight_[i] =
        0.5 * (by_id_[i].weight + (j == kNone ? 0.0 : weight_b(j)));
  }
  for (const std::pair<uint32_t, uint32_t>& entry : b_only_) {
    const uint32_t item = item_of_b_[entry.second];
    if (item != kNone) {
      item_weight_[item] = 0.5 * (0.0 + weight_b(entry.second));
    }
  }

  // Prefix weight sums in each list's order. A list's own items come by
  // rank; the items it lacks share the tail rank and follow in item order.
  prefix_a_.resize(num_items);
  prefix_b_.resize(num_items);
  double run = 0.0;
  for (uint32_t i : by_rank_) {
    run += item_weight_[i];
    prefix_a_[i] = run;
  }
  for (size_t i = num_a; i < num_items; ++i) {
    run += item_weight_[i];
    prefix_a_[i] = run;
  }
  run = 0.0;
  for (uint32_t j = 0; j < b.size(); ++j) {
    const uint32_t item = item_of_b_[j];
    if (item == kNone) continue;
    run += item_weight_[item];
    prefix_b_[item] = run;
  }
  for (size_t i = 0; i < num_a; ++i) {
    if (b_of_a_[i] != kNone) continue;
    run += item_weight_[i];
    prefix_b_[i] = run;
  }

  double f = 0.0;
  for (size_t i = 0; i < num_items; ++i) {
    f += item_weight_[i] * std::fabs(prefix_a_[i] - prefix_b_[i]);
  }
  return f;
}

double GeneralizedFootrule(const std::vector<WeightedFeature>& a,
                           const std::vector<WeightedFeature>& b) {
  return FootruleReference(a).Distance(b);
}

}  // namespace ie
