#include "index/compact_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace ie {

namespace {

// LEB128: 7 value bits per byte, high bit = continuation.
void EncodeVarint(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v | 0x80u));
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

size_t VarintBytes(uint32_t v) {
  size_t bytes = 1;
  for (; v >= 0x80u; v >>= 7) ++bytes;
  return bytes;
}

uint32_t DecodeVarint(const uint8_t** p) {
  uint32_t v = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = *(*p)++;
    v |= static_cast<uint32_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
    shift += 7;
  }
}

/// Conservative slack on summed score upper bounds. Per-posting
/// contributions and block maxima are exact doubles, but the pruning sums
/// them in a different association order than the exact scoring loop, so
/// the two double sums may differ in the last few ulps. Scaling the bound
/// up by 1e-9 relative dwarfs that reassociation error (<= ~1e-14
/// relative for these tiny sums) without costing measurable pruning.
constexpr double kBoundSlack = 1.0 + 1e-9;

}  // namespace

Status CompactIndex::Add(const Document& doc) {
  if (finalized_) {
    return Status::FailedPrecondition("CompactIndex already finalized");
  }
  if (doc.id > kMaxDocId) {
    return Status::InvalidArgument(
        StrFormat("doc id %u exceeds CompactIndex::kMaxDocId", doc.id));
  }
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
  // DETERMINISM: order-insensitive (one staged posting per (term, doc);
  // Finalize re-sorts every list by doc id before encoding)
  for (const auto& [term, count] : tf) {
    staged_[term].push_back({doc.id, count});
    ++num_postings_;
  }
  return Status::OK();
}

double CompactIndex::Contribution(double idf, uint32_t tf, DocId doc) const {
  // Must stay arithmetically identical to the test oracle's per-posting
  // expression (tests/index_oracle.h) — same association order, token for
  // token — or the byte-identity contract breaks in the last ulp.
  const double len = doc_lengths_.at(doc);
  const double tfd = tf;
  const double denom =
      tfd + kBm25K1 * (1.0 - kBm25B + kBm25B * len / avg_len_);
  return idf * (tfd * (kBm25K1 + 1.0)) / denom;
}

void CompactIndex::Finalize() {
  if (finalized_) return;
  const double n = static_cast<double>(NumDocs());
  avg_len_ = n > 0.0 ? total_length_ / n : 0.0;
  finalized_ = true;  // Contribution() needs avg_len_ set

  std::vector<TokenId> terms;
  terms.reserve(staged_.size());
  // DETERMINISM: order-insensitive (collection only; sorted just below)
  for (const auto& [term, staged] : staged_) {
    (void)staged;
    terms.push_back(term);
  }
  std::sort(terms.begin(), terms.end());

  // The first varint of posting i of a doc-sorted list. A block's first
  // posting stores its doc id, so blocks decode independently after a
  // skip; the rest store the gap to the previous doc. The low bit flags a
  // tf varint — most postings have tf == 1 and pay no tf byte at all.
  const auto head = [](const std::vector<StagedPosting>& list, size_t i) {
    const uint32_t value =
        i % kBlockSize == 0 ? list[i].doc : list[i].doc - list[i - 1].doc;
    return (value << 1) | (list[i].tf != 1 ? 1u : 0u);
  };

  // Sort every list by doc id and size the store exactly first: a blob
  // grown while encoding would briefly hold two copies of itself, which
  // shows in the peak RSS of a run that builds its pool index.
  size_t blob_bytes = 0;
  size_t num_blocks = 0;
  for (const TokenId term : terms) {
    std::vector<StagedPosting>& list = staged_.at(term);
    std::sort(list.begin(), list.end(),
              [](const StagedPosting& a, const StagedPosting& b) {
                return a.doc < b.doc;
              });
    for (size_t i = 0; i < list.size(); ++i) {
      blob_bytes += VarintBytes(head(list, i));
      if (list[i].tf != 1) blob_bytes += VarintBytes(list[i].tf);
    }
    num_blocks += (list.size() + kBlockSize - 1) / kBlockSize;
  }
  blob_.reserve(blob_bytes);
  blocks_.reserve(num_blocks);
  terms_.reserve(terms.size());

  for (const TokenId term : terms) {
    const std::vector<StagedPosting>& list = staged_.at(term);
    TermMeta meta;
    meta.doc_freq = static_cast<uint32_t>(list.size());
    const double df = static_cast<double>(list.size());
    // Same idf expression as the test oracle's Search.
    meta.idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    meta.first_block = static_cast<uint32_t>(blocks_.size());
    for (size_t begin = 0; begin < list.size(); begin += kBlockSize) {
      const size_t end = std::min(list.size(), begin + kBlockSize);
      BlockMeta block;
      block.offset = blob_.size();
      block.count = static_cast<uint32_t>(end - begin);
      block.last_doc = list[end - 1].doc;
      for (size_t i = begin; i < end; ++i) {
        EncodeVarint(&blob_, head(list, i));
        if (list[i].tf != 1) EncodeVarint(&blob_, list[i].tf);
        block.max_score =
            std::max(block.max_score,
                     Contribution(meta.idf, list[i].tf, list[i].doc));
      }
      meta.max_score = std::max(meta.max_score, block.max_score);
      blocks_.push_back(block);
    }
    meta.num_blocks = static_cast<uint32_t>(blocks_.size()) - meta.first_block;
    terms_.emplace(term, meta);
  }
  IE_CHECK(blob_.size() == blob_bytes);
  staged_.clear();
}

const CompactIndex::TermMeta* CompactIndex::FindTerm(TokenId term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? nullptr : &it->second;
}

size_t CompactIndex::DocFreq(TokenId term) const {
  IE_CHECK(finalized_);
  const TermMeta* meta = FindTerm(term);
  return meta == nullptr ? 0 : meta->doc_freq;
}

size_t CompactIndex::PostingsBytes() const {
  return blob_.capacity() + blocks_.capacity() * sizeof(BlockMeta) +
         terms_.size() * (sizeof(TokenId) + sizeof(TermMeta));
}

// One decoding position in a term's posting list. Never materializes the
// list: holds the current posting plus a byte pointer into the block.
struct CompactIndex::Cursor {
  const CompactIndex* index = nullptr;
  const TermMeta* term = nullptr;
  size_t block = 0;        // absolute index into index->blocks_
  const uint8_t* ptr = nullptr;
  uint32_t remaining = 0;  // postings not yet decoded in this block
  DocId doc = 0;
  uint32_t tf = 0;
  bool exhausted = false;

  double BlockMax() const { return index->blocks_[block].max_score; }

  void Open(size_t block_index) {
    block = block_index;
    const BlockMeta& meta = index->blocks_[block];
    ptr = index->blob_.data() + meta.offset;
    const uint32_t head = DecodeVarint(&ptr);
    doc = head >> 1;  // block-initial posting is absolute
    tf = (head & 1u) != 0 ? DecodeVarint(&ptr) : 1;
    remaining = meta.count - 1;
  }

  void Advance() {
    if (remaining > 0) {
      const uint32_t head = DecodeVarint(&ptr);
      doc += head >> 1;
      tf = (head & 1u) != 0 ? DecodeVarint(&ptr) : 1;
      --remaining;
      return;
    }
    const size_t end =
        static_cast<size_t>(term->first_block) + term->num_blocks;
    if (block + 1 < end) {
      Open(block + 1);
    } else {
      exhausted = true;
    }
  }

  /// Moves to the first posting with doc id >= target, skipping whole
  /// blocks via the last_doc skip pointers (no decoding inside skipped
  /// blocks).
  void AdvanceTo(DocId target) {
    if (exhausted || doc >= target) return;
    const size_t end =
        static_cast<size_t>(term->first_block) + term->num_blocks;
    if (index->blocks_[block].last_doc < target) {
      size_t next = block + 1;
      while (next < end && index->blocks_[next].last_doc < target) ++next;
      if (next == end) {
        exhausted = true;
        return;
      }
      Open(next);
    }
    while (doc < target) Advance();
  }
};

std::vector<SearchHit> CompactIndex::Search(const std::vector<TokenId>& terms,
                                            size_t k) const {
  IE_CHECK(finalized_);
  if (k == 0 || doc_lengths_.empty()) return {};

  // Cursors in deduped first-occurrence query order — the order the exact
  // scoring loop below adds contributions in, matching the test oracle.
  std::vector<Cursor> cursors;
  // DETERMINISM: order-insensitive (DedupeQueryTerms returns a plain
  // vector in first-occurrence order; no hash container is iterated here).
  for (TokenId term : DedupeQueryTerms(terms)) {
    const TermMeta* meta = FindTerm(term);
    if (meta == nullptr) continue;
    Cursor cursor;
    cursor.index = this;
    cursor.term = meta;
    cursor.Open(meta->first_block);
    cursors.push_back(cursor);
  }
  if (cursors.empty()) return {};

  auto better = [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  // Max-heap under `better`: the front is the *worst* of the best k, i.e.
  // the pruning threshold.
  std::vector<SearchHit> heap;
  heap.reserve(std::min(k, doc_lengths_.size()));

  std::vector<size_t> order;  // live cursors, sorted by current doc id
  order.reserve(cursors.size());
  while (true) {
    order.clear();
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].exhausted) order.push_back(i);
    }
    if (order.empty()) break;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (cursors[a].doc != cursors[b].doc) {
        return cursors[a].doc < cursors[b].doc;
      }
      return a < b;
    });

    const bool full = heap.size() >= k;
    const float threshold = full ? heap.front().score : 0.0f;

    // WAND pivot: the first prefix of doc-sorted cursors whose summed
    // term-level max scores could still reach the threshold. Documents
    // before the pivot doc cannot make the top k.
    constexpr size_t kNoPivot = static_cast<size_t>(-1);
    size_t pivot = kNoPivot;
    double upper = 0.0;
    for (size_t j = 0; j < order.size(); ++j) {
      upper += cursors[order[j]].term->max_score;
      if (!full || static_cast<float>(upper * kBoundSlack) >= threshold) {
        pivot = j;
        break;
      }
    }
    if (pivot == kNoPivot) break;  // no remaining doc can beat the heap
    const DocId pivot_doc = cursors[order[pivot]].doc;

    if (cursors[order[0]].doc != pivot_doc) {
      // Cheap skip: every cursor before the pivot jumps to the pivot doc
      // (block skip pointers avoid decoding the skipped ranges).
      for (size_t j = 0; j < pivot; ++j) {
        cursors[order[j]].AdvanceTo(pivot_doc);
      }
      continue;
    }

    // Candidate document. Block-max refinement: the sum of the *current
    // blocks'* maxima is a tighter bound than the term-level one.
    double block_upper = 0.0;
    for (size_t j = 0; j < order.size() && cursors[order[j]].doc == pivot_doc;
         ++j) {
      block_upper += cursors[order[j]].BlockMax();
    }
    const bool prunable =
        full && static_cast<float>(block_upper * kBoundSlack) < threshold;
    if (!prunable) {
      // Exact score, accumulated in deduped query-term order — the same
      // addition sequence the test oracle applies to its score accumulator.
      double score = 0.0;
      for (const Cursor& cursor : cursors) {
        if (!cursor.exhausted && cursor.doc == pivot_doc) {
          score += Contribution(cursor.term->idf, cursor.tf, pivot_doc);
        }
      }
      const SearchHit hit{pivot_doc, static_cast<float>(score)};
      if (!full) {
        heap.push_back(hit);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(hit, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = hit;
        std::push_heap(heap.begin(), heap.end(), better);
      }
    }
    for (Cursor& cursor : cursors) {
      if (!cursor.exhausted && cursor.doc == pivot_doc) cursor.Advance();
    }
  }

  SortHitsTopK(heap, k);
  return heap;
}

}  // namespace ie
