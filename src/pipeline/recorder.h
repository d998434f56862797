// PipelineRecorder — the pipeline flight recorder (DESIGN.md §15). Once
// per iteration (one consumed document) the pipeline samples a full
// IterationRecord across its collaborators — usefulness so far, the
// detector's drift statistic and retrain decision, exact per-component
// ‖Δw‖ at updates, the re-rank engine's scoring-pass count, executor
// hit/wait/miss/cancel totals, speculative queue depth, and process arena
// bytes — and the recorder writes it to a crash-safe JSONL run ledger
// (one line per iteration, flushed per line, so a partial file is
// parseable up to the crash point; schema in DESIGN.md §15, validated by
// tools/report.py --validate).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

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
/// checks this).
struct IterationRecord {
  /// 0-based iteration index == position in PipelineResult's
  /// processing_order (the ledger's "i" field is this plus 1).
  uint64_t index = 0;
  uint32_t doc = 0;
  IterationPhase phase = IterationPhase::kMain;
  bool useful = false;
  /// True when this iteration triggered a model update (retrain + rerank).
  bool retrained = false;
  uint64_t useful_total = 0;  // assigned by RecordIteration, like index
  double useful_rate = 0.0;   // useful_total / (index + 1)
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

struct PipelineConfig;  // pipeline/pipeline.h
struct PipelineResult;  // pipeline/result.h

class PipelineRecorder {
 public:
  /// `ledger_path` is the JSONL ledger destination; empty disables the
  /// recorder.
  explicit PipelineRecorder(std::string ledger_path);
  ~PipelineRecorder();

  PipelineRecorder(const PipelineRecorder&) = delete;
  PipelineRecorder& operator=(const PipelineRecorder&) = delete;

  /// False when the ledger is not open — callers skip sampling entirely.
  bool active() const { return ledger_ != nullptr; }

  /// Writes the ledger header line (the run's config, and `pool_size`
  /// distinct pool documents). Call once, before any iteration.
  void BeginRun(const PipelineConfig& config, size_t pool_size);

  /// Appends one iteration. `record.index`, `useful_total` and
  /// `useful_rate` are assigned here (call order defines the iteration
  /// order); the ledger line is flushed before returning, so it survives a
  /// crash of the very next iteration.
  void RecordIteration(IterationRecord record);

  /// Writes the ledger footer line (the run's totals) and closes the file.
  /// A ledger without a footer is a crashed (truncated) run — still
  /// parseable, flagged by the validator.
  void EndRun(const PipelineResult& result);

  /// Iterations recorded so far.
  uint64_t iterations() const { return iterations_; }

 private:
  void WriteLedgerLine();  // writes + flushes line_, with failure latching

  const std::string ledger_path_;
  uint64_t iterations_ = 0;
  uint64_t useful_total_ = 0;
  std::FILE* ledger_ = nullptr;
  std::string line_;  // reused per-line buffer
};

}  // namespace ie
