#include "ranking/query_learning.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/ordered.h"
#include "common/rng.h"

namespace ie {

const char* QueryMethodName(QueryMethod method) {
  switch (method) {
    case QueryMethod::kSvmWeights:
      return "svm";
    case QueryMethod::kLogOdds:
      return "odds";
    case QueryMethod::kTfDominance:
      return "tf";
  }
  return "?";
}

bool IsQueryableTerm(const std::string& term) {
  if (term.empty()) return false;
  if (term.find(':') != std::string::npos) return false;  // attr: features
  if (term.find('_') != std::string::npos) return false;  // multi-word terms
  return true;
}

namespace {

std::vector<std::string> RankTerms(
    const std::vector<std::pair<uint32_t, double>>& scored,
    const Vocabulary& vocab, size_t num_terms) {
  std::vector<std::pair<uint32_t, double>> sorted = scored;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::string> terms;
  for (const auto& [id, score] : sorted) {
    if (terms.size() >= num_terms) break;
    if (score <= 0.0) break;
    if (id >= vocab.size()) continue;
    const std::string& term = vocab.Term(id);
    if (!IsQueryableTerm(term)) continue;
    terms.push_back(term);
  }
  return terms;
}

}  // namespace

std::vector<std::string> LearnQueries(
    const std::vector<LabeledExample>& sample, const Vocabulary& vocab,
    QueryMethod method, size_t num_terms, uint64_t seed) {
  if (method == QueryMethod::kSvmWeights) {
    OnlineBinarySvm svm(
        {.lambda_all = 0.01, .lambda_l2_share = 1.0});
    Rng rng(seed);
    svm.TrainBatch(sample, /*epochs=*/5, &rng);
    const WeightVector w = svm.DenseWeights();
    std::vector<std::pair<uint32_t, double>> scored;
    for (uint32_t id = 0; id < w.dimension(); ++id) {
      const double v = w.Get(id);
      if (v > 0.0) scored.emplace_back(id, v);
    }
    return RankTerms(scored, vocab, num_terms);
  }

  // Document-frequency statistics per class.
  std::unordered_map<uint32_t, double> df_pos, df_all;
  size_t n_pos = 0;
  for (const LabeledExample& ex : sample) {
    if (ex.label > 0) ++n_pos;
    for (size_t i = 0; i < ex.features.size(); ++i) {
      const uint32_t id = ex.features.id(i);
      df_all[id] += 1.0;
      if (ex.label > 0) df_pos[id] += 1.0;
    }
  }
  const size_t n_all = sample.size();
  const size_t n_neg = n_all - n_pos;
  if (n_pos == 0 || n_neg == 0) return {};

  // Sorted visit order so `scored` is built identically on every standard
  // library (RankTerms breaks score ties by id, but why rely on it).
  std::vector<std::pair<uint32_t, double>> scored;
  ForEachSorted(df_all, [&](uint32_t id, double all_count) {
    const double pos_count =
        df_pos.count(id) > 0 ? df_pos.at(id) : 0.0;
    const double neg_count = all_count - pos_count;
    if (method == QueryMethod::kLogOdds) {
      const double p_pos =
          (pos_count + 0.5) / (static_cast<double>(n_pos) + 1.0);
      const double p_neg =
          (neg_count + 0.5) / (static_cast<double>(n_neg) + 1.0);
      const double odds = std::log(p_pos / (1.0 - p_pos)) -
                          std::log(p_neg / (1.0 - p_neg));
      // Require a minimum support so rare noise terms do not dominate.
      if (pos_count >= 3.0) scored.emplace_back(id, odds);
    } else {  // kTfDominance
      if (pos_count >= 3.0) {
        scored.emplace_back(id, pos_count / (all_count + 5.0));
      }
    }
  });
  return RankTerms(scored, vocab, num_terms);
}

}  // namespace ie
