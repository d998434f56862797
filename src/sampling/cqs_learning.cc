#include "sampling/cqs_learning.h"

#include <algorithm>

#include "common/rng.h"
#include "ranking/query_learning.h"

namespace ie {

namespace {

/// Per-class document budget per list (paper: 5000; sparse relations
/// yield fewer useful documents — all available are used).
constexpr size_t kDocsPerClass = 5000;

}  // namespace

std::vector<std::vector<std::string>> LearnCqsQueryLists(
    const Corpus& aux, const ExtractionOutcomes& outcomes,
    const Featurizer& featurizer, const CqsLearningOptions& options) {
  std::vector<DocId> useful, useless;
  for (DocId id = 0; id < aux.size(); ++id) {
    (outcomes.useful(id) ? useful : useless).push_back(id);
  }

  Rng rng(options.seed);
  std::vector<std::vector<std::string>> lists;
  for (size_t list = 0; list < options.num_lists; ++list) {
    rng.Shuffle(useful);
    rng.Shuffle(useless);
    const size_t n_pos = std::min(kDocsPerClass, useful.size());
    // Keep classes of comparable size even when useful docs are scarce
    // (sparse relations yield far fewer than kDocsPerClass positives).
    const size_t n_neg = std::min(
        useless.size(),
        std::min(kDocsPerClass, std::max<size_t>(4 * n_pos, 64)));

    std::vector<LabeledExample> sample;
    sample.reserve(n_pos + n_neg);
    for (size_t i = 0; i < n_pos; ++i) {
      sample.push_back({featurizer.Featurize(aux.doc(useful[i])), 1});
    }
    for (size_t i = 0; i < n_neg; ++i) {
      sample.push_back({featurizer.Featurize(aux.doc(useless[i])), -1});
    }
    lists.push_back(LearnQueries(sample, *featurizer.vocab(),
                                 QueryMethod::kSvmWeights,
                                 options.terms_per_list,
                                 options.seed + 100 + list));
  }
  return lists;
}

}  // namespace ie
