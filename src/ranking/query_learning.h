// Query-generation methods in the QXtract family (Agichtein & Gravano,
// ICDE'03): learn single-term keyword queries that tend to retrieve useful
// documents, from a sample of automatically labeled documents. Three
// methods (mirroring QXtract's use of several learners; FactCrawl weighs
// queries per generation method):
//   SVM weights  — top positive-weight terms of a linear SVM,
//   log-odds     — terms with highest smoothed log-odds of usefulness,
//   TF dominance — terms most frequent in useful documents relative to
//                  their overall frequency.
#pragma once

#include <string>
#include <vector>

#include "learn/binary_svm.h"
#include "text/vocabulary.h"

namespace ie {

enum class QueryMethod { kSvmWeights = 0, kLogOdds = 1, kTfDominance = 2 };
inline constexpr size_t kNumQueryMethods = 3;

const char* QueryMethodName(QueryMethod method);

/// Learns `num_terms` single-term queries with one method. Only word
/// features are eligible (tuple-attribute features are skipped). Terms are
/// returned most-promising first.
std::vector<std::string> LearnQueries(
    const std::vector<LabeledExample>& sample, const Vocabulary& vocab,
    QueryMethod method, size_t num_terms, uint64_t seed = 51);

/// True for feature ids that correspond to plain word terms usable as
/// keyword queries (filters the "attr:" featurizer namespace and
/// multi-word terms).
bool IsQueryableTerm(const std::string& term);

}  // namespace ie
