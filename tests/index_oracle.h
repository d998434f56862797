// InvertedIndex — the reference oracle for the SearchIndex contract
// (DESIGN.md §13). Uncompressed in-memory postings scored by a plain
// per-term accumulation: the simplest BM25 the contract can be read off.
// CompactIndex, the only backend the library ships, must return
// byte-identical hits; the tests and bench/bench_index.cc compare it
// against this class. Header-only so both can include it without a
// library target. Its arithmetic is the reference: change it only
// together with CompactIndex::Contribution, token for token.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "index/search_index.h"
#include "text/document.h"

namespace ie::test {

class InvertedIndex : public SearchIndex {
 public:
  /// Indexes a document (bag-of-words over all sentences). Documents may be
  /// added in any id order; re-adding the same id is an error.
  Status Add(const Document& doc) {
    if (doc_lengths_.count(doc.id) > 0) {
      return Status::InvalidArgument(
          StrFormat("document %u already indexed", doc.id));
    }
    std::unordered_map<TokenId, uint32_t> tf;
    uint32_t length = 0;
    for (const Sentence& sentence : doc.sentences) {
      for (TokenId token : sentence.tokens) {
        ++tf[token];
        ++length;
      }
    }
    doc_lengths_[doc.id] = length;
    total_length_ += length;
    // DETERMINISM: order-insensitive (each term gets exactly one posting
    // per document, so per-term posting lists stay in Add() call order)
    for (const auto& [term, count] : tf) {
      postings_[term].push_back({doc.id, count});
      ++num_postings_;
    }
    return Status::OK();
  }

  size_t NumDocs() const override { return doc_lengths_.size(); }
  size_t NumPostings() const override { return num_postings_; }

  size_t DocFreq(TokenId term) const override {
    auto it = postings_.find(term);
    return it == postings_.end() ? 0 : it->second.size();
  }

  std::vector<SearchHit> Search(const std::vector<TokenId>& terms,
                                size_t k) const override {
    if (k == 0 || doc_lengths_.empty()) return {};
    const double n = static_cast<double>(NumDocs());
    const double avg_len = total_length_ / n;

    // The query is a term set: walk each distinct term's posting list once
    // (a repeated token used to re-walk its list and double-add its
    // contribution). First-occurrence order fixes the per-document float
    // accumulation order — the cross-backend byte-identity contract.
    std::unordered_map<DocId, double> scores;
    for (TokenId term : DedupeQueryTerms(terms)) {
      auto it = postings_.find(term);
      if (it == postings_.end()) continue;
      const double df = static_cast<double>(it->second.size());
      // BM25 idf with the standard +1 inside the log to keep it positive.
      const double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
      for (const Posting& p : it->second) {
        const double len = doc_lengths_.at(p.doc);
        const double tf = p.tf;
        const double denom =
            tf + kBm25K1 * (1.0 - kBm25B + kBm25B * len / avg_len);
        scores[p.doc] += idf * (tf * (kBm25K1 + 1.0)) / denom;
      }
    }

    std::vector<SearchHit> hits;
    hits.reserve(scores.size());
    // DETERMINISM: order-insensitive (scores were accumulated in
    // query-term order; hits are fully re-sorted below with a doc-id
    // tie-break)
    for (const auto& [doc, score] : scores) {
      hits.push_back({doc, static_cast<float>(score)});
    }
    SortHitsTopK(hits, k);
    return hits;
  }

  /// Uncompressed accounting: allocated posting capacity plus the per-term
  /// hash-table entries.
  size_t PostingsBytes() const override {
    size_t bytes = 0;
    // DETERMINISM: order-insensitive (summation of integer sizes)
    for (const auto& [term, list] : postings_) {
      bytes += sizeof(term) + sizeof(list) + list.capacity() * sizeof(Posting);
    }
    return bytes;
  }

 private:
  struct Posting {
    DocId doc;
    uint32_t tf;
  };

  std::unordered_map<TokenId, std::vector<Posting>> postings_;
  std::unordered_map<DocId, uint32_t> doc_lengths_;
  size_t num_postings_ = 0;
  double total_length_ = 0.0;
};

}  // namespace ie::test
