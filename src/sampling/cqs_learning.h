// Learns CQS query lists from an auxiliary labeled collection — the
// substitute for the paper's TREC collections 1-5 ("we learned 5 lists of
// queries using sets of 10,000 random documents (5,000 useful and 5,000
// useless) ... by applying the SVM-based method in QXtract").
#pragma once

#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "extract/extraction_system.h"
#include "text/featurizer.h"

namespace ie {

struct CqsLearningOptions {
  size_t num_lists = 5;
  size_t terms_per_list = 20;
  uint64_t seed = 61;
};

/// Learns query lists for one relation from `aux` (labeled by `outcomes`).
std::vector<std::vector<std::string>> LearnCqsQueryLists(
    const Corpus& aux, const ExtractionOutcomes& outcomes,
    const Featurizer& featurizer, const CqsLearningOptions& options);

}  // namespace ie
