// SearchIndex — the keyword-retrieval interface (DESIGN.md §13), the
// repository's substitute for Lucene (DESIGN.md §2). QXtract-style query
// generation, CQS sampling, FactCrawl, and the search-interface access
// scenario all retrieve documents through it: documents are ranked by how
// well they match the query, NOT by extraction usefulness, which is exactly
// the mismatch the paper's rankers fix. The library ships one backend,
// CompactIndex (delta+varint-compressed postings with block-max
// top-k pruning). The contract is *byte-identical* `SearchHit` output
// against the test oracle (tests/index_oracle.h, uncompressed postings):
// for the same indexed documents and query, both return the same hits
// with bit-equal float scores (same BM25 arithmetic, same per-document
// accumulation order, same tie-break).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "text/document.h"
#include "text/vocabulary.h"

namespace ie {

struct SearchHit {
  DocId doc = 0;
  float score = 0.0f;
};

/// BM25 parameters (the standard defaults), shared by CompactIndex and the
/// test oracle so their arithmetic cannot drift.
inline constexpr double kBm25K1 = 1.2;
inline constexpr double kBm25B = 0.75;

class SearchIndex {
 public:
  virtual ~SearchIndex() = default;

  virtual size_t NumDocs() const = 0;
  virtual size_t NumPostings() const = 0;

  /// Document frequency of a term (0 when unseen).
  virtual size_t DocFreq(TokenId term) const = 0;

  /// Disjunctive (OR) BM25 top-k retrieval for a multi-term query.
  /// Repeated query terms count once (the query is a term *set*: each
  /// distinct term contributes one BM25 summand, in first-occurrence
  /// order). Ties broken by doc id for determinism. Terms absent from the
  /// index contribute nothing.
  virtual std::vector<SearchHit> Search(const std::vector<TokenId>& terms,
                                        size_t k) const = 0;

  /// Bytes resident for postings storage (lists + per-term/skip metadata;
  /// excludes document-length tables, which every backend keeps). The
  /// scale bench reports the product-to-oracle ratio from this.
  virtual size_t PostingsBytes() const = 0;

  /// Convenience: tokenizes `query` on whitespace (space, tab, CR, LF —
  /// the tokenizer's notion of whitespace, so multi-line queries work),
  /// looks terms up in `vocab` (unknown words are dropped), and searches.
  std::vector<SearchHit> SearchText(const std::string& query,
                                    const Vocabulary& vocab, size_t k) const;
};

/// Distinct query terms in first-occurrence order. Every backend dedupes
/// through this so a repeated token never re-walks its posting list
/// (double-adding its contribution was the pre-interface BM25 bug) and the
/// per-document float-accumulation order matches across backends.
std::vector<TokenId> DedupeQueryTerms(const std::vector<TokenId>& terms);

/// Sorts the best `k` hits to the front — descending score, ascending doc
/// id on ties — and truncates. Shared by every backend so the final
/// ordering logic cannot drift.
void SortHitsTopK(std::vector<SearchHit>& hits, size_t k);

}  // namespace ie
