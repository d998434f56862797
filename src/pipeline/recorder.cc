// detlint: export-path — the JSONL run ledger is machine-parsed
// (tools/report.py); every floating value goes through AppendJsonNumber
// (locale-independent, round-trip exact; DESIGN.md §12).
//
// Ledger schema (one JSON object per line; DESIGN.md §15):
//   {"type":"header","schema":3,...run metadata...}
//   {"type":"iter","i":1,...one IterationRecord...}   × N, flushed each
//   {"type":"end",...run totals...}                   absent if crashed
#include "pipeline/recorder.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "pipeline/pipeline.h"

namespace ie {

namespace {

void AppendKeyString(std::string* out, const char* key, const char* value) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  AppendJsonString(out, value);
}

void AppendKeyUint(std::string* out, const char* key, uint64_t value) {
  // to_chars instead of snprintf: this runs ~11x per iteration on the
  // recorder hot path, and the printf machinery alone costs more than the
  // 3% overhead budget allows at smoke scale.
  *out += ",\"";
  *out += key;
  *out += "\":";
  char buf[20];
  const auto rc = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, rc.ptr);
}

void AppendKeyDouble(std::string* out, const char* key, double value) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  AppendJsonNumber(out, value);
}

}  // namespace

PipelineRecorder::PipelineRecorder(std::string ledger_path)
    : ledger_path_(std::move(ledger_path)) {
  if (ledger_path_.empty()) return;
  ledger_ = std::fopen(ledger_path_.c_str(), "wb");
  if (ledger_ == nullptr) {
    IE_LOG(kWarn) << "flight recorder: cannot open ledger '" << ledger_path_
                  << "'; ledger disabled";
  }
}

PipelineRecorder::~PipelineRecorder() {
  // EndRun() normally closed it; this path is the crash-analogue where the
  // run unwound early — whatever was flushed per-line stays parseable.
  if (ledger_ != nullptr) std::fclose(ledger_);
  ledger_ = nullptr;
}

void PipelineRecorder::WriteLedgerLine() {
  if (ledger_ == nullptr) return;
  line_.push_back('\n');
  const bool ok =
      std::fwrite(line_.data(), 1, line_.size(), ledger_) == line_.size() &&
      std::fflush(ledger_) == 0;
  if (!ok) {
    IE_LOG(kWarn) << "flight recorder: write to ledger '" << ledger_path_
                  << "' failed; ledger disabled";
    std::fclose(ledger_);
    ledger_ = nullptr;
  }
}

void PipelineRecorder::BeginRun(const PipelineConfig& config,
                                size_t pool_size) {
  if (ledger_ == nullptr) return;
  line_ = "{\"type\":\"header\",\"schema\":3";
  AppendKeyString(&line_, "ranker", RankerKindName(config.ranker));
  AppendKeyString(&line_, "sampler", SamplerKindName(config.sampler));
  AppendKeyString(&line_, "update", UpdateKindName(config.update));
  AppendKeyString(&line_, "access", AccessModeName(config.access));
  AppendKeyUint(&line_, "seed", config.seed);
  AppendKeyUint(&line_, "pool_size", pool_size);
  AppendKeyUint(&line_, "sample_size",
                std::min(config.sample_size, pool_size));
  AppendKeyUint(&line_, "extract_threads", config.extract_threads);
  line_.push_back('}');
  WriteLedgerLine();
}

void PipelineRecorder::RecordIteration(IterationRecord record) {
  record.index = iterations_++;
  useful_total_ += record.useful ? 1 : 0;
  record.useful_total = useful_total_;
  record.useful_rate = static_cast<double>(useful_total_) /
                       static_cast<double>(record.index + 1);
  if (ledger_ == nullptr) return;
  line_ = "{\"type\":\"iter\"";
  AppendKeyUint(&line_, "i", record.index + 1);
  AppendKeyUint(&line_, "doc", record.doc);
  AppendKeyString(&line_, "phase", IterationPhaseName(record.phase));
  AppendKeyUint(&line_, "useful", record.useful ? 1 : 0);
  AppendKeyUint(&line_, "useful_total", record.useful_total);
  AppendKeyDouble(&line_, "useful_rate", record.useful_rate);
  AppendKeyDouble(&line_, "stat", record.detector_statistic);
  AppendKeyUint(&line_, "retrain", record.retrained ? 1 : 0);
  if (record.retrained) {
    AppendKeyDouble(&line_, "dw", record.weight_delta_norm);
    line_ += ",\"dw_c\":[";
    for (size_t c = 0; c < record.component_delta_norms.size(); ++c) {
      if (c > 0) line_.push_back(',');
      AppendJsonNumber(&line_, record.component_delta_norms[c]);
    }
    line_.push_back(']');
  }
  AppendKeyUint(&line_, "full_rescores", record.full_rescores);
  AppendKeyUint(&line_, "hits", record.executor_hits);
  AppendKeyUint(&line_, "waits", record.executor_waits);
  AppendKeyUint(&line_, "misses", record.executor_misses);
  AppendKeyUint(&line_, "cancelled", record.executor_cancelled);
  AppendKeyUint(&line_, "queue", record.queue_depth);
  line_.push_back('}');
  WriteLedgerLine();
}

void PipelineRecorder::EndRun(const PipelineResult& result) {
  if (ledger_ == nullptr) return;
  line_ = "{\"type\":\"end\"";
  AppendKeyUint(&line_, "iterations", iterations_);
  AppendKeyUint(&line_, "updates", result.NumUpdates());
  AppendKeyUint(&line_, "useful_total", useful_total_);
  AppendKeyDouble(&line_, "extraction_seconds", result.extraction_seconds);
  AppendKeyDouble(&line_, "extract_cpu_seconds", result.extract_cpu_seconds);
  AppendKeyDouble(&line_, "extract_wall_seconds",
                  result.extract_wall_seconds);
  AppendKeyDouble(&line_, "ranking_cpu_seconds", result.ranking_cpu_seconds);
  AppendKeyDouble(&line_, "detector_cpu_seconds",
                  result.detector_cpu_seconds);
  line_.push_back('}');
  WriteLedgerLine();
  if (ledger_ != nullptr) {
    std::fclose(ledger_);
    ledger_ = nullptr;
  }
}

}  // namespace ie
