#include "ranking/factcrawl.h"

#include <algorithm>
#include <cmath>

#include "common/ordered.h"

namespace ie {

namespace {

/// β of the F-measure; < 1 weights precision over recall.
constexpr double kBeta = 0.5;
/// Queries learned per generation method from the labeled sample.
constexpr size_t kQueriesPerMethod = 15;

}  // namespace

void FactCrawl::AddQuery(const std::string& term, QueryMethod method) {
  if (!used_terms_.insert(term).second) return;  // dedupe across methods
  queries_.push_back({term, method, 0, 0, 0, 0});
  retrieved_.emplace_back();
  RetrieveSetFor(queries_.size() - 1);
}

void FactCrawl::RetrieveSetFor(size_t query_index) {
  const std::vector<SearchHit> hits = index_->SearchText(
      queries_[query_index].term, *vocab_, options_.retrieved_per_query);
  auto& set = retrieved_[query_index];
  for (const SearchHit& hit : hits) {
    if (set.insert(hit.doc).second) {
      doc_queries_[hit.doc].push_back(static_cast<uint32_t>(query_index));
    }
  }
}

void FactCrawl::LearnInitialQueries(
    const std::vector<LabeledExample>& sample, uint64_t seed) {
  for (size_t m = 0; m < kNumQueryMethods; ++m) {
    const auto method = static_cast<QueryMethod>(m);
    for (const std::string& term :
         LearnQueries(sample, *vocab_, method, kQueriesPerMethod, seed + m)) {
      AddQuery(term, method);
    }
  }
}

std::vector<DocId> FactCrawl::EvaluateQueries(
    const std::function<bool(DocId)>& is_useful) {
  std::unordered_set<DocId> consumed;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryStats& q = queries_[qi];
    if (q.eval_total > 0) continue;  // already evaluated
    const std::vector<SearchHit> hits = index_->SearchText(
        q.term, *vocab_, options_.eval_docs_per_query);
    for (const SearchHit& hit : hits) {
      ++q.eval_total;
      if (is_useful(hit.doc)) ++q.eval_useful;
      consumed.insert(hit.doc);
    }
  }
  // The evaluated documents flow straight into the caller's processing
  // order: return them doc-id-sorted, not in hash-iteration order.
  return SortedKeys(consumed);
}

double FactCrawl::FBeta(const QueryStats& q,
                        double total_useful_estimate) const {
  const double useful =
      static_cast<double>(q.eval_useful + q.processed_useful);
  const double total =
      static_cast<double>(q.eval_total + q.processed_total);
  if (total == 0.0 || useful == 0.0) return 0.0;
  const double precision = useful / total;
  const double recall =
      total_useful_estimate > 0.0
          ? std::min(1.0, useful / total_useful_estimate)
          : 0.0;
  const double b2 = kBeta * kBeta;
  const double denom = b2 * precision + recall;
  if (denom == 0.0) return 0.0;
  return (1.0 + b2) * precision * recall / denom;
}

const std::unordered_map<DocId, double>& FactCrawl::RecomputeScores() {
  // Recall denominator: queries cannot see true collection recall, so the
  // estimate is the largest per-query useful count observed so far.
  double total_useful_estimate = 0.0;
  for (const QueryStats& q : queries_) {
    total_useful_estimate = std::max(
        total_useful_estimate,
        static_cast<double>(q.eval_useful + q.processed_useful));
  }

  std::vector<double> fbeta(queries_.size());
  double method_sum[kNumQueryMethods] = {0.0, 0.0, 0.0};
  size_t method_count[kNumQueryMethods] = {0, 0, 0};
  for (size_t i = 0; i < queries_.size(); ++i) {
    fbeta[i] = FBeta(queries_[i], total_useful_estimate);
    const size_t m = static_cast<size_t>(queries_[i].method);
    method_sum[m] += fbeta[i];
    ++method_count[m];
  }
  double method_avg[kNumQueryMethods];
  for (size_t m = 0; m < kNumQueryMethods; ++m) {
    method_avg[m] =
        method_count[m] > 0
            ? method_sum[m] / static_cast<double>(method_count[m])
            : 0.0;
  }

  scores_.clear();
  // DETERMINISM: order-insensitive (each doc's score is computed from its
  // own query list and written to its own key; no cross-doc accumulation)
  for (const auto& [doc, query_indices] : doc_queries_) {
    double s = 0.0;
    for (uint32_t qi : query_indices) {
      s += fbeta[qi] *
           method_avg[static_cast<size_t>(queries_[qi].method)];
    }
    scores_[doc] = s;
  }
  return scores_;
}

double FactCrawl::Score(DocId doc) const {
  const auto it = scores_.find(doc);
  return it == scores_.end() ? 0.0 : it->second;
}

void FactCrawl::ObserveProcessed(DocId doc, bool useful) {
  const auto it = doc_queries_.find(doc);
  if (it == doc_queries_.end()) return;
  for (uint32_t qi : it->second) {
    ++queries_[qi].processed_total;
    if (useful) ++queries_[qi].processed_useful;
  }
}

void FactCrawl::RefreshQueries(const std::vector<LabeledExample>& labeled,
                               uint64_t seed) {
  const std::vector<std::string> terms =
      LearnQueries(labeled, *vocab_, QueryMethod::kSvmWeights,
                   options_.new_queries_per_refresh + used_terms_.size(),
                   seed);
  size_t added = 0;
  for (const std::string& term : terms) {
    if (added >= options_.new_queries_per_refresh) break;
    if (used_terms_.count(term) > 0) continue;
    AddQuery(term, QueryMethod::kSvmWeights);
    ++added;
  }
}

}  // namespace ie
