// Throughput bench for the speculative parallel extraction executor
// (DESIGN.md §9): end-to-end adaptive runs with *live* per-document
// extraction (SharedContext::extraction_system) at several
// extract_threads settings, reporting docs/sec and speedup over the serial
// run and re-proving byte-identical output along the way.
//
// Not a microbench: one run per thread count is the measurement (the
// unit of work is the whole pipeline), and results are emitted as JSON for
// CI trend tracking.
//
//   bench_extract [--threads=1,2,4,8] [--out=BENCH_extract.json]
//                 [--trace=trace.json] [--ledger=run.jsonl]
//
// With --trace, an extra overhead smoke runs after the thread sweep:
// two-thread runs with the tracer off vs on, in blocks of one off-first
// and one on-first pair; each block scores the geometric mean of its two
// ratios of process CPU seconds, and the smoke reports the smallest block
// score. The traced runs export a Chrome-trace JSON to the given path (CI
// validates it with tools/check_trace.py) and the ratio lands in the
// output JSON as "trace_overhead_ratio" (CI gates it at <= 1.10).
//
// With --ledger, an analogous flight-recorder smoke runs: blocks of
// serial runs with the recorder (the JSONL ledger) off vs on. The
// recorded runs write the ledger to the given path (CI validates it with
// tools/report.py --validate and cross-checks it against the trace) and
// the ratio lands as "recorder_overhead_ratio" (CI gates it at <= 1.03).
// Runs are re-checked byte-identical either way — the recorder is a
// passive observer.
//
// Environment knobs (bench_common.h): IE_BENCH_DOCS (default here: 10000).
//
// The ≥2.5x speedup acceptance check at 8 threads only runs when the host
// actually has 8 hardware threads; on smaller machines it reports SKIP
// (the determinism checks still run — threads interleave on any core
// count).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "pipeline/pipeline.h"

using namespace ie;
using namespace ie::bench;

namespace {

/// CPU seconds of every thread of the process.
double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

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

/// An off/on overhead measurement: the best run of each side and the
/// gated ratio.
struct Overhead {
  double best_off = 0.0;
  double best_on = 0.0;
  double ratio = 0.0;  // the smallest block score
};

/// Runs `blocks` blocks of `run(false)` / `run(true)` pairs, each block one
/// off-first and one on-first pair, and scores a block as the geometric
/// mean of its two on/off ratios. Whichever side runs second in a pair
/// finds the process warmer; the two orders cancel that bias within a
/// block, so the minimum over blocks favours neither side.
template <typename Fn>
Overhead MeasureOverhead(int blocks, Fn&& run) {
  Overhead overhead;
  const auto keep_best = [](double* best, double seconds) {
    if (*best == 0.0 || seconds < *best) *best = seconds;
  };
  for (int block = 0; block < blocks; ++block) {
    const double off_first = run(false);
    const double on_second = run(true);
    const double on_first = run(true);
    const double off_second = run(false);
    keep_best(&overhead.best_off, std::min(off_first, off_second));
    keep_best(&overhead.best_on, std::min(on_first, on_second));
    if (off_first > 0.0 && off_second > 0.0) {
      keep_best(&overhead.ratio, std::sqrt((on_second / off_first) *
                                           (on_first / off_second)));
    }
  }
  return overhead;
}

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

  // Tracing-overhead smoke: 3 blocks (MeasureOverhead) of two-thread
  // runs, tracer off vs on, measured like the recorder smoke below: CPU
  // seconds, gated on the minimum block score. Process CPU, so the
  // executor workers' spans count; not wall, because at two threads the
  // wall hides the workers' share and its run-to-run spread exceeds the
  // 10% budget (a best-of-3 wall ratio read 0.885 and 1.184 on the same
  // code). Two threads so the trace carries executor spans and
  // queue-depth counters, not just the serial inline path. The traced runs
  // all export to trace_path (last one wins — any of them is a valid CI
  // artifact).
  double trace_overhead_ratio = 0.0;
  if (!trace_path.empty()) {
    config.extract_threads = 2;
    const Overhead overhead = MeasureOverhead(3, [&](bool traced) {
      config.trace_path = traced ? trace_path : std::string();
      const double start = ProcessCpuSeconds();
      const PipelineResult result =
          AdaptiveExtractionPipeline::Run(context, config);
      IE_CHECK(result.processing_order == reference_order);
      return ProcessCpuSeconds() - start;
    });
    config.trace_path.clear();
    trace_overhead_ratio = overhead.ratio;
    std::fprintf(stderr,
                 "[bench_extract] trace overhead: untraced=%.3fs "
                 "traced=%.3fs min-block process cpu ratio=%.3f "
                 "(trace -> %s)\n",
                 overhead.best_off, overhead.best_on, trace_overhead_ratio,
                 trace_path.c_str());
  }

  // Flight-recorder overhead smoke: 4 blocks (MeasureOverhead) of serial
  // CPU seconds, recorder off vs on (the JSONL ledger, flushed per
  // iteration). Serial runs on the calling thread so
  // CLOCK_THREAD_CPUTIME_ID captures the whole pipeline including the
  // ledger's write syscalls; CPU time instead of wall
  // because a 3% budget is far below wall-clock scheduler noise on small
  // CI machines. Each block measures adjacent off/on pairs and the gate
  // takes the minimum block score: pairing cancels slow machine-wide
  // drift (cache pressure, frequency scaling), and because interrupt/cache
  // noise on shared CI hardware is strictly additive, the cleanest block
  // is the one closest to the true overhead floor — a mean or median
  // re-imports the noise a 3% budget cannot absorb.
  // The recorded runs write the ledger to ledger_path (last one wins —
  // iteration content is deterministic, so any of them is the valid CI
  // artifact; only the footer's timing fields vary).
  double recorder_overhead_ratio = 0.0;
  if (!ledger_path.empty()) {
    config.extract_threads = 1;
    const Overhead overhead = MeasureOverhead(4, [&](bool record) {
      config.ledger_path = record ? ledger_path : std::string();
      CpuTimer timer;
      const PipelineResult result =
          AdaptiveExtractionPipeline::Run(context, config);
      IE_CHECK(result.processing_order == reference_order);
      return timer.ElapsedSeconds();
    });
    config.ledger_path.clear();
    recorder_overhead_ratio = overhead.ratio;
    std::fprintf(stderr,
                 "[bench_extract] recorder overhead: off=%.3fs on=%.3fs "
                 "min-block cpu ratio=%.3f (ledger -> %s)\n",
                 overhead.best_off, overhead.best_on, recorder_overhead_ratio,
                 ledger_path.c_str());
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
