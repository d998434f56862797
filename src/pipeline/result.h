// PipelineResult: everything the evaluation layer needs from one
// extraction run — the processing order with per-document usefulness, the
// update log, the cost decomposition (simulated extraction seconds +
// measured ranking/detection overhead), and a per-run MetricsSnapshot.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "text/document.h"

namespace ie {

struct PipelineResult {
  /// Documents in the order they were processed (sample first).
  std::vector<DocId> processing_order;
  /// Usefulness verdict per processed document (aligned with order).
  std::vector<uint8_t> processed_useful;

  size_t pool_size = 0;
  /// Useful documents in the full pool (recall denominator).
  size_t pool_useful = 0;
  /// Prefix of processing_order consumed by sampling/query evaluation.
  size_t warmup_documents = 0;

  /// Positions (processed-document counts) where model updates fired.
  std::vector<size_t> update_positions;

  /// Simulated extraction time (per-document cost model). Deterministic —
  /// one charge per consumed document regardless of extract_threads — so
  /// cost metrics stay comparable across thread counts.
  double extraction_seconds = 0.0;
  /// Measured per-document extraction CPU: the sum of thread-CPU timers
  /// around each document's extraction wherever it ran (executor workers
  /// or inline). Unlike wall time this does not shrink with speculation;
  /// it is the run's real extraction work. 0 unless the run did real work
  /// (live extraction or featurization of useful documents).
  double extract_cpu_seconds = 0.0;
  /// Wall-clock time of the processing phases (warmup consumption through
  /// the last document), including ranking overhead — the end-to-end
  /// docs/sec denominator for bench_extract.
  double extract_wall_seconds = 0.0;
  /// Measured CPU time inside the update detector: every Observe() and
  /// every refresh after a model update (OnModelUpdated).
  double detector_cpu_seconds = 0.0;
  /// Measured CPU time spent training/scoring/sorting (ranking overhead).
  double ranking_cpu_seconds = 0.0;

  /// This run's delta of the process-wide metrics registry
  /// (common/metrics.h): the counters the IE_METRIC_* macros recorded
  /// during the run.
  MetricsSnapshot metrics;

  /// Re-rank engine telemetry (RerankStats, pipeline/rerank_engine.h):
  /// scoring passes over the pending pool, one per re-rank.
  size_t full_rescores = 0;
  /// Speculative extraction executor telemetry (ExtractExecutorStats,
  /// pipeline/extract_executor.h): consumed results that were ready
  /// (hits), awaited in-flight (waits), computed inline (misses), and
  /// queued prefetches dropped on re-ranks (cancelled). A serial run is
  /// all misses. Timing-dependent — excluded from determinism comparisons.
  size_t speculative_hits = 0;
  size_t speculative_waits = 0;
  size_t speculative_misses = 0;
  size_t speculative_cancelled = 0;
  /// Peak size of the between-updates example buffer. Non-adaptive runs
  /// skip buffering entirely, so this stays 0 for them (regression guard
  /// against re-introducing unbounded feature-vector accumulation).
  size_t peak_buffer_examples = 0;

  /// Non-zero feature count of the final model (0 for rankers without one).
  size_t final_model_features = 0;
  /// The final model's non-zero weights, ascending by feature id (empty
  /// for rankers without a weight vector). Deterministic for a given
  /// config+seed at any thread count; the golden-hash determinism test
  /// (tests/determinism_golden_test.cc) folds these into its digest.
  std::vector<std::pair<uint32_t, double>> final_weights;
  /// Features added/removed across updates (feature-churn telemetry).
  std::vector<size_t> features_added_per_update;
  std::vector<size_t> features_removed_per_update;

  double TotalSeconds() const {
    return extraction_seconds + detector_cpu_seconds + ranking_cpu_seconds;
  }
  size_t NumUpdates() const { return update_positions.size(); }
};

}  // namespace ie
