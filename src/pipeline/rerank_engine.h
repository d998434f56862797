// Re-rank frontier (DESIGN.md §8). The paper's adaptive loop re-scores the
// entire remaining pool on every model update. This engine does exactly
// that — one serial scoring pass over the pending candidates per Rerank(),
// in insertion order — and serves candidates best-first from a binary
// heap, so only the consumed frontier is ever ordered. Equal scores pop in
// insertion order, reproducing the stable sort the heap replaced.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ranking/document_ranker.h"
#include "text/document.h"
#include "text/sparse_vector.h"

namespace ie {

/// Empty: scoring is serial. Kept because perfbench/replay.cc passes one.
struct RerankOptions {};

struct RerankStats {
  size_t full_rescores = 0;  // scoring passes, one per Rerank()
};

/// Priority frontier over the unprocessed candidate pool.
class RerankEngine {
 public:
  /// `score_override`, when set, replaces the ranker's Score() (the Perfect
  /// oracle scores by usefulness, which features alone cannot express).
  RerankEngine(DocumentRanker* ranker,
               const std::vector<SparseVector>* features,
               RerankOptions options,
               std::function<double(DocId)> score_override = nullptr);

  /// Registers a candidate document. Insertion order is the deterministic
  /// tie-break: equal float scores pop in insertion order, mirroring the
  /// stable sort this engine replaced. Newly added candidates become
  /// eligible on the next Rerank().
  void AddCandidate(DocId doc);

  /// Re-scores every pending candidate against the ranker's current model
  /// (snapshotting it) and rebuilds the frontier heap.
  void Rerank();

  /// Pops the best pending candidate; false when the pool is exhausted.
  bool PopNext(DocId* doc);

  /// Returns a popped-but-unconsumed candidate to the pending pool (the
  /// speculative extraction loop pops a lookahead window and pushes the
  /// unconsumed remainder back before re-ranking). The document keeps its
  /// original insertion slot — and hence its tie-break position — and its
  /// last score.
  void Requeue(DocId doc);

  size_t pending() const { return pending_; }
  const RerankStats& stats() const { return stats_; }

 private:
  struct Slot {
    DocId doc = 0;
    float score = 0.0f;
  };
  struct HeapEntry {
    float score = 0.0f;
    uint32_t slot = 0;
  };

  static bool HeapEntryLess(const HeapEntry& a, const HeapEntry& b);
  double Score(DocId doc) const;

  DocumentRanker* ranker_;  // may be null only with score_override
  const std::vector<SparseVector>* features_;
  std::function<double(DocId)> score_override_;

  std::vector<Slot> slots_;
  std::vector<uint8_t> processed_;     // parallel to slots_
  std::vector<uint32_t> slot_of_doc_;  // DocId -> slot (kNoSlot = absent)
  std::vector<HeapEntry> heap_;
  size_t pending_ = 0;
  RerankStats stats_;
};

}  // namespace ie
