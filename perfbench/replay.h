// Traced replay of one adaptive run. It drives the layers through their
// public calls in the order AdaptiveExtractionPipeline::Run does — sample,
// warm up, train, detect, retrain, refresh, (search,) re-rank — and wraps
// every layer call in a span, so per-layer time comes from the benchmark's
// own spans and the program stays untouched. The replay's processing
// order, usefulness and update positions must equal Run()'s for the same
// config; the caller checks that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pipeline/extract_executor.h"
#include "pipeline/pipeline.h"
#include "spans.h"

namespace perfbench {

struct ReplayResult {
  std::vector<ie::DocId> processing_order;
  std::vector<uint8_t> processed_useful;
  std::vector<size_t> update_positions;

  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Per update: from the end of the Observe call that triggered it to the
  /// start of the next document's Take.
  std::vector<double> update_pause_ms;

  size_t checks = 0;         // UpdateDetector::Observe calls
  size_t refreshes = 0;      // UpdateDetector::OnModelUpdated calls
  size_t reranks = 0;        // RerankEngine::Rerank calls
  size_t queries = 0;        // SearchIndex::SearchText calls
  size_t hits = 0;           // hits those queries returned
  size_t new_candidates = 0; // hits that entered the candidate pool
  size_t features_churned = 0;  // model features added + removed by updates
  ie::ExtractExecutorStats executor;
};

/// Replays `config` over `context`, recording spans into `spans` (tagged
/// with the recorder's current run id). The sampler, ranker and detector
/// come from the program's own factories (MakeSampler, MakeRanker,
/// MakeDetector), so the replay times the classes Run() builds. It mirrors
/// Run()'s adaptive path — an RSVM-IE or BAgg-IE ranker with an update
/// detector, as every workload runs; for other configs the caller's
/// replay-equals-Run() check fails.
ReplayResult ReplayRun(const ie::SharedContext& context,
                       const ie::PipelineConfig& config, SpanRecorder* spans);

}  // namespace perfbench
