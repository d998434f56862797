// PipelineRecorder — the pipeline flight recorder (DESIGN.md §15). Once
// per iteration (one consumed document) the pipeline hands it an
// IterationRecord of that document's facts — its id, phase and usefulness,
// the detector's drift statistic and retrain decision, and exact
// per-component ‖Δw‖ at updates — and the recorder writes it to a
// crash-safe JSONL run ledger (one line per iteration, flushed per line,
// so a partial file is parseable up to the crash point; schema in
// DESIGN.md §15, validated by tools/report.py --validate). Run totals live
// in PipelineResult, and only the footer repeats them.
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

/// One iteration's facts: nothing on it is a running total or a copy of a
/// count kept elsewhere.
struct IterationRecord {
  uint32_t doc = 0;
  IterationPhase phase = IterationPhase::kMain;
  bool useful = false;
  /// True when this iteration triggered a model update (retrain + rerank).
  bool retrained = false;
  /// UpdateDetector::LastStatistic() after observing this document.
  double detector_statistic = 0.0;
  /// ‖Δw‖₂ of the model across this iteration's update (0 unless
  /// retrained): total over all components and the per-component split
  /// (RSVM-IE: one entry; BAgg-IE: one per committee member).
  double weight_delta_norm = 0.0;
  std::vector<double> component_delta_norms;
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

  /// Appends one iteration, numbered by call order; the ledger line is
  /// flushed before returning, so it survives a crash of the very next
  /// iteration.
  void RecordIteration(const IterationRecord& record);

  /// Writes the ledger footer line (the run's totals, read from `result`)
  /// and closes the file. A ledger without a footer is a crashed
  /// (truncated) run — still parseable, flagged by the validator.
  void EndRun(const PipelineResult& result);

  /// Iterations recorded so far.
  uint64_t iterations() const { return iterations_; }

 private:
  void WriteLedgerLine();  // writes + flushes line_, with failure latching

  const std::string ledger_path_;
  uint64_t iterations_ = 0;
  std::FILE* ledger_ = nullptr;
  std::string line_;  // reused per-line buffer
};

}  // namespace ie
