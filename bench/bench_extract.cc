// Throughput bench for the speculative parallel extraction executor
// (DESIGN.md §9): end-to-end adaptive runs with *live* per-document
// extraction (SharedContext::extraction_system) at several
// extract_threads settings, reporting docs/sec and speedup over the serial
// run and re-proving byte-identical output along the way.
//
// Not a google-benchmark microbench: one run per thread count is the
// measurement (the unit of work is the whole pipeline), and results are
// emitted as JSON for CI trend tracking.
//
//   bench_extract [--threads=1,2,4,8] [--out=BENCH_extract.json]
//                 [--trace=trace.json] [--ledger=run.jsonl]
//                 [--metrics-out=metrics.prom]
//
// With --trace, an extra overhead smoke runs after the thread sweep:
// best-of-3 two-thread walls with the tracer off vs on. The traced runs
// export a Chrome-trace JSON to the given path (CI validates it with
// tools/check_trace.py) and the ratio lands in the output JSON as
// "trace_overhead_ratio".
//
// With --ledger, an analogous flight-recorder smoke runs: interleaved
// serial runs with the recorder (the JSONL ledger) off vs on. The
// recorded runs write the ledger to the given path (CI validates it with
// tools/report.py --validate and cross-checks it against the trace) and
// the ratio lands as "recorder_overhead_ratio" (CI gates it at <= 1.03).
// Runs are re-checked byte-identical either way — the recorder is a
// passive observer.
//
// With --metrics-out, the serial run's metrics snapshot is rendered as
// Prometheus text exposition to the given path (validated by
// tools/report.py --validate-prom).
//
// Environment knobs (bench_common.h): IE_BENCH_DOCS (default here: 10000).
//
// The ≥2.5x speedup acceptance check at 8 threads only runs when the host
// actually has 8 hardware threads; on smaller machines it reports SKIP
// (the determinism checks still run — threads interleave on any core
// count).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "pipeline/pipeline.h"

using namespace ie;
using namespace ie::bench;

namespace {

struct RunStats {
  size_t threads = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double docs_per_sec = 0.0;
  double speedup = 1.0;
  size_t hits = 0;
  size_t waits = 0;
  size_t misses = 0;
  size_t cancelled = 0;
};

std::vector<size_t> ParseThreadList(const std::string& csv) {
  std::vector<size_t> threads;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const long value = std::atol(csv.substr(pos, comma - pos).c_str());
    if (value > 0) threads.push_back(static_cast<size_t>(value));
    pos = comma + 1;
  }
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::string out_path = "BENCH_extract.json";
  std::string trace_path;
  std::string ledger_path;
  std::string metrics_out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      thread_counts = ParseThreadList(arg.substr(10));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--ledger=", 0) == 0) {
      ledger_path = arg.substr(9);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out_path = arg.substr(14);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (thread_counts.empty() || thread_counts.front() != 1) {
    // The serial run is the speedup baseline and determinism reference.
    thread_counts.insert(thread_counts.begin(), 1);
  }

  const size_t num_docs = EnvSize("IE_BENCH_DOCS", 10000);
  Harness harness({RelationId::kPersonCharge}, num_docs);
  SharedContext context = harness.Context(RelationId::kPersonCharge);
  // Live extraction: run the real IE system per document so the executor
  // parallelizes real CPU, not the simulated-cost replay.
  context.extraction_system =
      &harness.world().system(RelationId::kPersonCharge);

  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 17);
  config.sample_size = harness.SampleSize();

  std::vector<RunStats> runs;
  std::vector<DocId> reference_order;
  MetricsSnapshot serial_metrics;
  bool identical = true;
  for (size_t threads : thread_counts) {
    config.extract_threads = threads;
    const PipelineResult result =
        AdaptiveExtractionPipeline::Run(context, config);
    RunStats stats;
    stats.threads = threads;
    stats.wall_seconds = result.extract_wall_seconds;
    stats.cpu_seconds = result.extract_cpu_seconds;
    stats.docs_per_sec =
        result.extract_wall_seconds > 0.0
            ? static_cast<double>(result.processing_order.size()) /
                  result.extract_wall_seconds
            : 0.0;
    stats.hits = result.speculative_hits;
    stats.waits = result.speculative_waits;
    stats.misses = result.speculative_misses;
    stats.cancelled = result.speculative_cancelled;
    if (threads == 1) {
      reference_order = result.processing_order;
      serial_metrics = result.metrics;
    } else if (result.processing_order != reference_order) {
      identical = false;
      std::fprintf(stderr,
                   "FAIL: processing order at %zu threads differs from "
                   "serial\n",
                   threads);
    }
    if (!runs.empty() && stats.wall_seconds > 0.0) {
      stats.speedup = runs.front().wall_seconds / stats.wall_seconds;
    }
    runs.push_back(stats);
    std::fprintf(stderr,
                 "[bench_extract] threads=%zu wall=%.2fs cpu=%.2fs "
                 "docs/sec=%.0f speedup=%.2fx hits=%zu waits=%zu "
                 "misses=%zu cancelled=%zu\n",
                 stats.threads, stats.wall_seconds, stats.cpu_seconds,
                 stats.docs_per_sec, stats.speedup, stats.hits, stats.waits,
                 stats.misses, stats.cancelled);
  }

  // Acceptance: ≥2.5x at 8 threads, hardware permitting.
  const unsigned hw = std::thread::hardware_concurrency();
  double speedup8 = 0.0;
  for (const RunStats& stats : runs) {
    if (stats.threads == 8) speedup8 = stats.speedup;
  }
  const bool gate_applies = hw >= 8 && speedup8 > 0.0;
  const bool gate_passes = !gate_applies || speedup8 >= 2.5;
  std::fprintf(stderr, "[bench_extract] hw_concurrency=%u speedup@8=%.2fx %s\n",
               hw, speedup8,
               gate_applies ? (gate_passes ? "PASS" : "FAIL")
                            : "SKIP (needs >=8 hardware threads)");

  // Tracing-overhead smoke: best-of-3 two-thread walls, tracer off vs on.
  // Two threads so the trace carries executor spans and queue-depth
  // counters, not just the serial inline path. The traced runs all export
  // to trace_path (last one wins — any of them is a valid CI artifact).
  double trace_overhead_ratio = 0.0;
  if (!trace_path.empty()) {
    config.extract_threads = 2;
    const auto best_wall = [&](const std::string& path) {
      config.trace_path = path;
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer timer;
        const PipelineResult result =
            AdaptiveExtractionPipeline::Run(context, config);
        IE_CHECK(result.processing_order == reference_order);
        const double wall = timer.ElapsedSeconds();
        if (best == 0.0 || wall < best) best = wall;
      }
      return best;
    };
    const double untraced = best_wall("");
    const double traced = best_wall(trace_path);
    config.trace_path.clear();
    if (untraced > 0.0) trace_overhead_ratio = traced / untraced;
    std::fprintf(stderr,
                 "[bench_extract] trace overhead: untraced=%.3fs "
                 "traced=%.3fs ratio=%.3f (trace -> %s)\n",
                 untraced, traced, trace_overhead_ratio, trace_path.c_str());
  }

  // Flight-recorder overhead smoke: 8 interleaved off/on pairs of serial
  // CPU seconds, recorder off vs on (the JSONL ledger, flushed per
  // iteration). Serial runs on the calling thread so
  // CLOCK_THREAD_CPUTIME_ID captures the whole pipeline including the
  // ledger's write syscalls; CPU time instead of wall
  // because a 3% budget is far below wall-clock scheduler noise on small
  // CI machines. Each rep measures an adjacent off/on pair and the gate
  // takes the minimum of the per-pair ratios: pairing cancels slow
  // machine-wide drift (cache pressure, frequency scaling), and because
  // interrupt/cache noise on shared CI hardware is strictly additive, the
  // cleanest pair is the one closest to the true overhead floor — a mean
  // or median re-imports the noise a 3% budget cannot absorb.
  // The recorded runs write the ledger to ledger_path (last one wins —
  // iteration content is deterministic, so any of them is the valid CI
  // artifact; only the footer's timing fields vary).
  double recorder_overhead_ratio = 0.0;
  if (!ledger_path.empty()) {
    config.extract_threads = 1;
    const auto one_cpu = [&](bool record) {
      config.ledger_path = record ? ledger_path : std::string();
      CpuTimer timer;
      const PipelineResult result =
          AdaptiveExtractionPipeline::Run(context, config);
      IE_CHECK(result.processing_order == reference_order);
      return timer.ElapsedSeconds();
    };
    double unrecorded = 0.0;
    double recorded = 0.0;
    std::vector<double> ratios;
    for (int rep = 0; rep < 8; ++rep) {
      const double off = one_cpu(false);
      const double on = one_cpu(true);
      if (off > 0.0) ratios.push_back(on / off);
      if (unrecorded == 0.0 || off < unrecorded) unrecorded = off;
      if (recorded == 0.0 || on < recorded) recorded = on;
    }
    config.ledger_path.clear();
    if (!ratios.empty()) {
      recorder_overhead_ratio = *std::min_element(ratios.begin(), ratios.end());
    }
    std::fprintf(stderr,
                 "[bench_extract] recorder overhead: off=%.3fs on=%.3fs "
                 "min-pair cpu ratio=%.3f (ledger -> %s)\n",
                 unrecorded, recorded, recorder_overhead_ratio,
                 ledger_path.c_str());
  }

  // Prometheus exposition of the serial run's metrics snapshot.
  if (!metrics_out_path.empty()) {
    std::FILE* prom = std::fopen(metrics_out_path.c_str(), "w");
    if (prom == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out_path.c_str());
      return 2;
    }
    const std::string text = serial_metrics.ToPrometheus();
    std::fwrite(text.data(), 1, text.size(), prom);
    std::fclose(prom);
    std::fprintf(stderr, "[bench_extract] metrics exposition -> %s\n",
                 metrics_out_path.c_str());
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"extract\",\n  \"docs\": %zu,\n"
               "  \"pool\": %zu,\n  \"hardware_concurrency\": %u,\n"
               "  \"byte_identical\": %s,\n  \"runs\": [\n",
               num_docs, harness.test_pool().size(), hw,
               identical ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunStats& stats = runs[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"wall_seconds\": %.4f, "
                 "\"cpu_seconds\": %.4f, \"docs_per_sec\": %.1f, "
                 "\"speedup\": %.3f, \"hits\": %zu, \"waits\": %zu, "
                 "\"misses\": %zu, \"cancelled\": %zu}%s\n",
                 stats.threads, stats.wall_seconds, stats.cpu_seconds,
                 stats.docs_per_sec, stats.speedup, stats.hits, stats.waits,
                 stats.misses, stats.cancelled,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"speedup_at_8\": %.3f,\n  \"gate\": \"%s\",\n"
               "  \"trace_overhead_ratio\": %.3f,\n"
               "  \"recorder_overhead_ratio\": %.3f,\n",
               speedup8,
               gate_applies ? (gate_passes ? "PASS" : "FAIL") : "SKIP",
               trace_overhead_ratio, recorder_overhead_ratio);
  std::fprintf(out, "%s\n}\n", MetricsJsonEntry(serial_metrics).c_str());
  std::fclose(out);

  if (!identical) return 1;
  if (!gate_passes) return 1;
  return 0;
}
