// PipelineRecorder — the pipeline flight recorder (DESIGN.md §15). Once
// per iteration (one consumed document) the pipeline samples a full
// IterationRecord across its collaborators — usefulness so far, the
// detector's drift statistic and retrain decision, exact per-component
// ‖Δw‖ at updates, the re-rank engine's scoring-pass count, executor
// hit/wait/miss/cancel totals, speculative queue depth, and process arena
// bytes — and the recorder fans it out to two sinks:
//
//   1. a crash-safe JSONL run ledger (one line per iteration, flushed per
//      line, so a partial file is parseable up to the crash point; schema
//      in DESIGN.md §15, validated by tools/report.py --validate), and
//   2. a bounded in-memory series (SampledRing, common/timeseries.h)
//      surfaced as PipelineResult::iterations for in-process consumers.
//
// In IE_OBSERVABILITY=0 builds the recorder is an inert stub and the
// PipelineResult member does not exist — zero size and zero work, like the
// rest of the observability layer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"  // IE_OBSERVABILITY
#include "common/timeseries.h"

namespace ie {

/// Which stage of the run an iteration belongs to: the fixed-order warmup
/// sample, the ranked main loop, or the search-interface leftovers tail.
enum class IterationPhase : uint8_t { kWarmup = 0, kMain = 1, kTail = 2 };

inline const char* IterationPhaseName(IterationPhase phase) {
  switch (phase) {
    case IterationPhase::kWarmup:
      return "warmup";
    case IterationPhase::kMain:
      return "main";
    case IterationPhase::kTail:
      return "tail";
  }
  return "?";
}

/// One iteration's telemetry. Counter-like fields are cumulative over the
/// run (monotone non-decreasing across records — the ledger validator
/// checks this), so a downsampled series still reconstructs totals.
struct IterationRecord {
  /// 0-based iteration index == position in PipelineResult's
  /// processing_order (the ledger's "i" field is this plus 1).
  uint64_t index = 0;
  uint32_t doc = 0;
  IterationPhase phase = IterationPhase::kMain;
  bool useful = false;
  /// True when this iteration triggered a model update (retrain + rerank).
  bool retrained = false;
  uint64_t useful_total = 0;
  double useful_rate = 0.0;  // useful_total / (index + 1)
  /// UpdateDetector::LastStatistic() after observing this document.
  double detector_statistic = 0.0;
  /// ‖Δw‖₂ of the model across this iteration's update (0 unless
  /// retrained): total over all components and the per-component split
  /// (RSVM-IE: one entry; BAgg-IE: one per committee member).
  double weight_delta_norm = 0.0;
  std::vector<double> component_delta_norms;
  uint64_t full_rescores = 0;   // cumulative RerankStats
  uint64_t executor_hits = 0;   // cumulative ExtractExecutorStats
  uint64_t executor_waits = 0;
  uint64_t executor_misses = 0;
  uint64_t executor_cancelled = 0;
  /// Speculative tasks queued behind the frontier right now (not
  /// cumulative), and process-wide arena bytes reserved right now.
  uint64_t queue_depth = 0;
  uint64_t arena_bytes = 0;
};

/// Run metadata for the ledger header line (name fields point at static
/// strings — the *KindName tables).
struct RecorderRunInfo {
  const char* ranker = "?";
  const char* sampler = "?";
  const char* update = "?";
  const char* access = "?";
  uint64_t seed = 0;
  uint64_t pool_size = 0;
  uint64_t sample_size = 0;
  uint64_t extract_threads = 1;
  uint64_t scoring_threads = 1;
};

/// End-of-run totals for the ledger footer line. A ledger without a footer
/// is a crashed (truncated) run — still parseable, flagged by the
/// validator.
struct RecorderRunSummary {
  uint64_t updates = 0;
  uint64_t useful_total = 0;
  double extraction_seconds = 0.0;
  double extract_cpu_seconds = 0.0;
  double extract_wall_seconds = 0.0;
  double ranking_cpu_seconds = 0.0;
  double detector_cpu_seconds = 0.0;
};

#if IE_OBSERVABILITY

class PipelineRecorder {
 public:
  struct Options {
    /// JSONL ledger destination; empty disables the ledger sink.
    std::string ledger_path;
    /// Retain the in-memory downsampled series (TakeSeries()).
    bool record_series = false;
    size_t series_capacity = 512;
  };

  explicit PipelineRecorder(Options options);
  ~PipelineRecorder();

  PipelineRecorder(const PipelineRecorder&) = delete;
  PipelineRecorder& operator=(const PipelineRecorder&) = delete;

  /// False when neither sink is enabled — callers skip sampling entirely.
  bool active() const { return ledger_ != nullptr || options_.record_series; }

  /// Writes the ledger header line. Call once, before any iteration.
  void BeginRun(const RecorderRunInfo& info);

  /// Appends one iteration to both sinks. `record.index` is assigned here
  /// (call order defines the iteration order); the ledger line is flushed
  /// before returning, so it survives a crash of the very next iteration.
  void RecordIteration(IterationRecord record);

  /// Writes the ledger footer line and closes the file.
  void EndRun(const RecorderRunSummary& summary);

  /// The retained downsampled series, ascending by index (empty unless
  /// Options::record_series). Leaves the recorder's series empty.
  std::vector<IterationRecord> TakeSeries() { return ring_.TakeSamples(); }

  /// Iterations recorded so far.
  uint64_t iterations() const { return iterations_; }

 private:
  void WriteLedgerLine();  // writes + flushes line_, with failure latching

  Options options_;
  SampledRing<IterationRecord> ring_;
  uint64_t iterations_ = 0;
  std::FILE* ledger_ = nullptr;
  std::string line_;  // reused per-line buffer
};

#else  // !IE_OBSERVABILITY

/// Inert flight recorder: every member compiles to nothing, mirroring the
/// IE_METRIC_*/IE_TRACE_* macros. PipelineResult has no `iterations`
/// member in this configuration (see pipeline/result.h).
class PipelineRecorder {
 public:
  struct Options {
    std::string ledger_path;
    bool record_series = false;
    size_t series_capacity = 512;
  };

  explicit PipelineRecorder(Options) {}

  PipelineRecorder(const PipelineRecorder&) = delete;
  PipelineRecorder& operator=(const PipelineRecorder&) = delete;

  bool active() const { return false; }
  void BeginRun(const RecorderRunInfo&) {}
  void RecordIteration(IterationRecord) {}
  void EndRun(const RecorderRunSummary&) {}
  std::vector<IterationRecord> TakeSeries() { return {}; }
  uint64_t iterations() const { return 0; }
};

#endif  // IE_OBSERVABILITY

}  // namespace ie
