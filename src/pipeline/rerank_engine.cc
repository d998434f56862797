#include "pipeline/rerank_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace ie {

namespace {

constexpr uint32_t kNoSlot = 0xffffffffu;

}  // namespace

RerankEngine::RerankEngine(DocumentRanker* ranker,
                           const std::vector<SparseVector>* features,
                           RerankOptions options,
                           std::function<double(DocId)> score_override)
    : ranker_(ranker),
      features_(features),
      options_(options),
      score_override_(std::move(score_override)) {
  IE_CHECK(features_ != nullptr);
  IE_CHECK(ranker_ != nullptr || score_override_ != nullptr);
}

void RerankEngine::AddCandidate(DocId doc) {
  if (doc >= slot_of_doc_.size()) {
    slot_of_doc_.resize(doc + 1, kNoSlot);
  }
  IE_CHECK(slot_of_doc_[doc] == kNoSlot);
  slot_of_doc_[doc] = static_cast<uint32_t>(slots_.size());
  slots_.push_back(Slot{doc, 0.0f});
  processed_.push_back(0);
  ++pending_;
}

double RerankEngine::Score(DocId doc) const {
  if (score_override_ != nullptr) return score_override_(doc);
  return ranker_->Score((*features_)[doc]);
}

void RerankEngine::Rerank() {
  IE_TRACE_SCOPE("rerank.full");
  IE_METRIC_COUNT("rerank.full_rescores");
  if (ranker_ != nullptr) ranker_->SnapshotForScoring();
  heap_.clear();
  heap_.reserve(pending_);
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (!processed_[s]) heap_.push_back(HeapEntry{0.0f, s});
  }
  // Each index writes only its own entry and slot, so ParallelFor stays
  // deterministic; the serial loop scores in insertion order, which a
  // stateful Score() (Random) relies on.
  auto score_one = [&](size_t i) {
    Slot& slot = slots_[heap_[i].slot];
    slot.score = static_cast<float>(Score(slot.doc));
    heap_[i].score = slot.score;
  };
  if (options_.allow_parallel_scoring && options_.scoring_threads > 1) {
    ParallelFor(heap_.size(), options_.scoring_threads, score_one);
  } else {
    for (size_t i = 0; i < heap_.size(); ++i) score_one(i);
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapEntryLess);
  ++stats_.full_rescores;
}

// Strict total order for the frontier heap: higher score first, then
// earlier insertion (lower slot) — the deterministic tie-break that makes
// heap selection reproduce the stable sort it replaced. std::*_heap expect
// a less-than whose "largest" element is the heap top.
bool RerankEngine::HeapEntryLess(const HeapEntry& a, const HeapEntry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.slot > b.slot;
}

void RerankEngine::Requeue(DocId doc) {
  IE_CHECK(doc < slot_of_doc_.size() && slot_of_doc_[doc] != kNoSlot);
  const uint32_t slot = slot_of_doc_[doc];
  IE_CHECK(processed_[slot]);
  processed_[slot] = 0;
  ++pending_;
  heap_.push_back(HeapEntry{slots_[slot].score, slot});
  std::push_heap(heap_.begin(), heap_.end(), HeapEntryLess);
}

bool RerankEngine::PopNext(DocId* doc) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapEntryLess);
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  IE_CHECK(!processed_[top.slot]);
  processed_[top.slot] = 1;
  --pending_;
  *doc = slots_[top.slot].doc;
  return true;
}

}  // namespace ie
