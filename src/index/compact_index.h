// CompactIndex — the library's one SearchIndex backend (DESIGN.md §13);
// BuildPoolIndex returns it for every pool. Postings are stored
// delta-compressed in one blob, terms in ascending id order: per term,
// doc-id gaps (low bit = "tf varint follows"; tf == 1 postings pay no tf
// byte) are LEB128 varints laid out in blocks of 128 postings, each block
// carrying skip metadata (last doc id, byte offset) and the exact maximum
// BM25 contribution of any posting in the block. Search runs WAND-style
// document-at-a-time top-k with term-level and block-level max-score
// pruning; the pruning is conservative (see DESIGN.md §13 for the
// invariant), so the returned hits are byte-identical to the test
// oracle's (tests/index_oracle.h) over the same documents.
//
// Build protocol: Add() every document, then Finalize() once — Finalize
// computes the corpus statistics the max-score metadata depends on
// (document frequencies, average length) and compresses the staged
// postings, releasing the staging memory. Search/DocFreq require a
// finalized index.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "index/search_index.h"
#include "text/document.h"
#include "text/vocabulary.h"

namespace ie {

class CompactIndex : public SearchIndex {
 public:
  /// Postings per block: small enough that block-max pruning has
  /// resolution, large enough that skip metadata stays a rounding error
  /// of the postings bytes.
  static constexpr size_t kBlockSize = 128;

  /// Doc ids must leave the top bit free: the encoder folds a has-tf flag
  /// into the low bit of the (doc or gap) varint, i.e. stores value*2+flag
  /// in 32 bits. Every corpus in this codebase assigns dense sequential
  /// ids, so the cap is theoretical.
  static constexpr DocId kMaxDocId = 0x7fffffffu;

  /// Stages a document (bag-of-words over all sentences). Documents may be
  /// added in any id order; re-adding the same id is an error, as is
  /// adding after Finalize().
  Status Add(const Document& doc);

  /// Compresses the staged postings, term by ascending term, and computes
  /// the block-max metadata. Idempotent; called implicitly by nothing —
  /// builders call it exactly once after the last Add().
  void Finalize();

  bool finalized() const { return finalized_; }

  size_t NumDocs() const override { return doc_lengths_.size(); }
  size_t NumPostings() const override { return num_postings_; }

  size_t DocFreq(TokenId term) const override;

  std::vector<SearchHit> Search(const std::vector<TokenId>& terms,
                                size_t k) const override;

  /// Compressed accounting: the postings blob + block skip/max metadata +
  /// per-term directory entries.
  size_t PostingsBytes() const override;

 private:
  // Field order keeps the struct at 24 bytes (no padding holes): the skip
  // metadata is a per-128-postings cost and is counted by PostingsBytes.
  struct BlockMeta {
    uint64_t offset = 0;   // byte offset of the block within blob_
    double max_score = 0;  // exact max BM25 contribution in the block
    DocId last_doc = 0;    // skip pointer: last doc id in the block
    uint32_t count = 0;    // postings in the block (<= kBlockSize)
  };

  struct TermMeta {
    uint32_t doc_freq = 0;
    uint32_t first_block = 0;  // index into blocks_
    uint32_t num_blocks = 0;
    double idf = 0.0;          // precomputed at Finalize
    double max_score = 0.0;    // max over blocks (WAND term upper bound)
  };

  struct Cursor;  // defined in compact_index.cc

  const TermMeta* FindTerm(TokenId term) const;
  double Contribution(double idf, uint32_t tf, DocId doc) const;

  std::unordered_map<TokenId, TermMeta> terms_;  // the term directory
  std::vector<BlockMeta> blocks_;
  std::vector<uint8_t> blob_;
  std::unordered_map<DocId, uint32_t> doc_lengths_;
  size_t num_postings_ = 0;
  double total_length_ = 0.0;
  bool finalized_ = false;
  double avg_len_ = 0.0;

  // Staging (released by Finalize): per-term (doc, tf) pairs in Add order.
  struct StagedPosting {
    DocId doc;
    uint32_t tf;
  };
  std::unordered_map<TokenId, std::vector<StagedPosting>> staged_;
};

}  // namespace ie
