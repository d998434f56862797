// FactCrawl baseline (Boden et al., WebDB'11) and its adaptive variant
// A-FC (paper Section 4). FactCrawl learns keyword queries from a labeled
// sample with several generation methods, estimates each query's quality
// Fβ(q) by retrieving a few documents and running the extractor over them,
// and scores documents as S(d) = Σ_{q ∈ Q_d} Fβ(q) · Fβ_avg(method(q)).
// A-FC additionally recomputes query qualities from documents processed
// during extraction, learns new queries, and re-ranks periodically.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "index/search_index.h"
#include "learn/binary_svm.h"
#include "ranking/query_learning.h"
#include "text/document.h"
#include "text/vocabulary.h"

namespace ie {

struct FactCrawlOptions {
  /// Documents retrieved and run through the extractor per query during
  /// the one-time quality-estimation step (this is charged as extraction
  /// effort by the pipeline).
  size_t eval_docs_per_query = 20;
  /// Retrieval depth per query when building the scored pool. The paper's
  /// FactCrawl uses ~300 over a 1.09M-document pool (~0.03%); 0 = auto,
  /// scaled to 1% of the pool so FC keeps its scale-relative coverage
  /// (leaving most of the pool unretrieved, hence randomly ordered).
  size_t retrieved_per_query = 0;
  /// A-FC: terms added per query refresh.
  size_t new_queries_per_refresh = 5;
};

class FactCrawl {
 public:
  FactCrawl(FactCrawlOptions options, const SearchIndex* index,
            const Vocabulary* vocab)
      : options_(options), index_(index), vocab_(vocab) {}

  /// Learns queries from the labeled sample with all generation methods.
  void LearnInitialQueries(const std::vector<LabeledExample>& sample,
                           uint64_t seed);

  /// One-time query quality estimation: retrieves eval_docs_per_query
  /// documents per query and labels them with `is_useful` (the extractor
  /// verdict). Returns the distinct documents consumed, so the pipeline
  /// can charge their extraction cost.
  std::vector<DocId> EvaluateQueries(
      const std::function<bool(DocId)>& is_useful);

  /// Builds retrieval sets (top retrieved_per_query per query) and returns
  /// S(d) for every retrieved document.
  const std::unordered_map<DocId, double>& RecomputeScores();

  /// Current score of one document (0 when retrieved by no query).
  double Score(DocId doc) const;

  /// A-FC: incorporate the verdict of a processed document into the
  /// retrieval statistics of the queries that retrieved it.
  void ObserveProcessed(DocId doc, bool useful);

  /// A-FC: learns additional queries (SVM method) from accumulated labeled
  /// documents, skipping terms already in use, then refreshes retrieval
  /// sets for the new queries.
  void RefreshQueries(const std::vector<LabeledExample>& labeled,
                      uint64_t seed);

  size_t NumQueries() const { return queries_.size(); }

 private:
  struct QueryStats {
    std::string term;
    QueryMethod method;
    size_t eval_useful = 0;
    size_t eval_total = 0;
    size_t processed_useful = 0;
    size_t processed_total = 0;
  };

  double FBeta(const QueryStats& q, double total_useful_estimate) const;
  void AddQuery(const std::string& term, QueryMethod method);
  void RetrieveSetFor(size_t query_index);

  FactCrawlOptions options_;
  const SearchIndex* index_;
  const Vocabulary* vocab_;

  std::vector<QueryStats> queries_;
  std::vector<std::unordered_set<DocId>> retrieved_;  // per query
  std::unordered_map<DocId, std::vector<uint32_t>> doc_queries_;
  std::unordered_set<std::string> used_terms_;
  std::unordered_map<DocId, double> scores_;
};

}  // namespace ie
