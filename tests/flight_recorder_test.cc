// Tests for the pipeline flight recorder (DESIGN.md §15) and its common-
// layer substrate: SampledRing/TimeSeries deterministic downsampling
// (common/timeseries.h), RunningStats empty-side merges (common/stats.h),
// histogram quantile estimates vs exact sorts (common/metrics.h),
// Prometheus text exposition, the PipelineRecorder's JSONL ledger, and the
// recorder's pipeline integration (PipelineResult::iterations, passivity).
// In obs-off builds the recorder collapses to an inert stub and
// PipelineResult has no `iterations` member — asserted below with a
// requires-expression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/timeseries.h"
#include "pipeline/pipeline.h"
#include "pipeline/recorder.h"
#include "test_util.h"

namespace ie {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + name;
}

/// splitmix64: deterministic value stream for quantile comparisons.
uint64_t Mix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- SampledRing / TimeSeries ------------------------------------------

TEST(SampledRingTest, RetainsEveryStridethIndexDeterministically) {
  SampledRing<TimeSeriesSample> ring(8);
  for (uint64_t i = 0; i < 1000; ++i) {
    ring.Append([](uint64_t index) {
      return TimeSeriesSample{index, static_cast<double>(index) * 0.5};
    });
  }
  EXPECT_EQ(ring.total_appended(), 1000u);
  const std::vector<TimeSeriesSample>& samples = ring.samples();
  ASSERT_FALSE(samples.empty());
  ASSERT_LE(samples.size(), 8u);
  // The retained set is exactly the multiples of the final stride, in
  // order, values intact.
  const uint64_t stride = ring.stride();
  EXPECT_EQ(samples.front().index, 0u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, stride * i);
    EXPECT_DOUBLE_EQ(samples[i].value,
                     static_cast<double>(samples[i].index) * 0.5);
  }
  EXPECT_EQ(samples.size(), (1000 + stride - 1) / stride);

  // Pure function of (capacity, append count): a second ring agrees.
  SampledRing<TimeSeriesSample> again(8);
  for (uint64_t i = 0; i < 1000; ++i) {
    again.Append(
        [](uint64_t index) { return TimeSeriesSample{index, 0.0}; });
  }
  EXPECT_EQ(again.stride(), stride);
  ASSERT_EQ(again.samples().size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(again.samples()[i].index, samples[i].index);
  }
}

TEST(SampledRingTest, NoDownsamplingBelowCapacity) {
  SampledRing<TimeSeriesSample> ring(16);
  for (uint64_t i = 0; i < 16; ++i) {
    ring.Append([](uint64_t index) { return TimeSeriesSample{index, 0.0}; });
  }
  EXPECT_EQ(ring.stride(), 1u);
  EXPECT_EQ(ring.samples().size(), 16u);
}

TEST(SampledRingTest, TakeSamplesDrainsButKeepsCounting) {
  SampledRing<TimeSeriesSample> ring(4);
  for (uint64_t i = 0; i < 3; ++i) {
    ring.Append([](uint64_t index) { return TimeSeriesSample{index, 0.0}; });
  }
  const std::vector<TimeSeriesSample> taken = ring.TakeSamples();
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_TRUE(ring.samples().empty());
  EXPECT_EQ(ring.total_appended(), 3u);
}

TEST(TimeSeriesTest, SnapshotPreservesIndexValuePairs) {
  TimeSeries series(64);
  for (int i = 0; i < 40; ++i) series.Append(i * 1.5);
  EXPECT_EQ(series.total_appended(), 40u);
  const std::vector<TimeSeriesSample> snap = series.Snapshot();
  ASSERT_EQ(snap.size(), 40u);
  for (const TimeSeriesSample& s : snap) {
    EXPECT_DOUBLE_EQ(s.value, static_cast<double>(s.index) * 1.5);
  }
}

TEST(TimeSeriesTest, ConcurrentAppendsAllCounted) {
  TimeSeries series(32);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&series] {
      for (int i = 0; i < kPerThread; ++i) series.Append(1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(series.total_appended(),
            static_cast<uint64_t>(kThreads * kPerThread));
  for (const TimeSeriesSample& s : series.Snapshot()) {
    EXPECT_LT(s.index, static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(s.value, 1.0);
  }
}

// ---- RunningStats empty-side merges ------------------------------------

TEST(RunningStatsMergeTest, EmptyMergedWithEmptyStaysEmpty) {
  RunningStats a;
  a.Merge(RunningStats());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);  // empty accessors report 0, not ±inf
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(RunningStatsMergeTest, EmptyAdoptsNonEmptySide) {
  RunningStats other;
  other.Add(2.0);
  other.Add(-4.0);
  RunningStats empty;
  empty.Merge(other);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), -1.0);
  EXPECT_DOUBLE_EQ(empty.min(), -4.0);
  EXPECT_DOUBLE_EQ(empty.max(), 2.0);
}

TEST(RunningStatsMergeTest, NonEmptyUnchangedByEmptySide) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Add(3.0);
  stats.Merge(RunningStats());
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(RunningStatsMergeTest, FromMomentsZeroCountIgnoresExtremaArgs) {
  // A shard that never observed reports garbage extrema slots; n == 0 must
  // win over them.
  const RunningStats stats = RunningStats::FromMoments(0, 123.0, 456.0,
                                                       /*min=*/99.0,
                                                       /*max=*/-99.0);
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
  RunningStats base;
  base.Add(5.0);
  base.Merge(stats);  // merging it in must not poison real extrema
  EXPECT_DOUBLE_EQ(base.min(), 5.0);
  EXPECT_DOUBLE_EQ(base.max(), 5.0);
}

TEST(RunningStatsMergeTest, FromMomentsNormalizesInvertedExtrema) {
  // Mid-update shard reads can transiently present min > max (relaxed
  // atomics carry no cross-field ordering); FromMoments re-sorts them.
  const RunningStats stats =
      RunningStats::FromMoments(3, 1.0, 0.5, /*min=*/7.0, /*max=*/2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
}

// ---- Histogram quantiles vs exact sorts --------------------------------

/// Exact nearest-rank quantile over sorted values: element of rank
/// ceil(q·N), 1-based — the same rank definition Quantile() estimates.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return sorted[rank - 1];
}

/// Returns [lo, hi] of the snapshot bucket containing `value` — the same
/// interval arithmetic Quantile() interpolates within.
std::pair<double, double> BucketInterval(const HistogramSnapshot& snapshot,
                                         double value) {
  size_t b = snapshot.bounds.size();
  for (size_t i = 0; i < snapshot.bounds.size(); ++i) {
    if (value <= snapshot.bounds[i]) {
      b = i;
      break;
    }
  }
  const double lo = b == 0 ? snapshot.summary.min() : snapshot.bounds[b - 1];
  const double hi = b < snapshot.bounds.size() ? snapshot.bounds[b]
                                               : snapshot.summary.max();
  return {lo, hi};
}

TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  Histogram hist({1.0, 2.0});
  EXPECT_DOUBLE_EQ(hist.Snapshot().P50(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Snapshot().Quantile(0.99), 0.0);
}

TEST(HistogramQuantileTest, SingleValueIsEveryQuantile) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(7.5);
  const HistogramSnapshot snapshot = hist.Snapshot();
  // Clamped to [min, max] = [7.5, 7.5]: exact at any q.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(snapshot.P50(), 7.5);
  EXPECT_DOUBLE_EQ(snapshot.P99(), 7.5);
}

TEST(HistogramQuantileTest, MatchesExactSortWithinBucket) {
  // Log-spaced bounds over a deterministic heavy-tailed value stream: the
  // estimate must land in the same bucket as the exact sorted rank sample,
  // i.e. within that bucket's width of the exact value.
  Histogram hist({0.001, 0.01, 0.1, 1.0, 10.0});
  std::vector<double> values;
  uint64_t rng = 42;
  for (int i = 0; i < 2000; ++i) {
    const double u =
        static_cast<double>(Mix(rng) >> 11) / 9007199254740992.0;  // [0,1)
    values.push_back(std::pow(10.0, u * 5.0 - 4.0));  // 1e-4 .. 1e1
    hist.Observe(values.back());
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snapshot = hist.Snapshot();
  for (double q : {0.01, 0.25, 0.50, 0.90, 0.99, 1.0}) {
    const double exact = ExactQuantile(values, q);
    const double estimate = snapshot.Quantile(q);
    const auto [lo, hi] = BucketInterval(snapshot, exact);
    EXPECT_GE(estimate, lo - 1e-12) << "q=" << q;
    EXPECT_LE(estimate, hi + 1e-12) << "q=" << q;
    EXPECT_LE(std::abs(estimate - exact), (hi - lo) + 1e-12) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, ShardMergedQuantilesMatchExactSort) {
  // Observations spread across four recording threads (four shards); the
  // merged quantiles must agree with an exact sort of the union.
  Histogram hist({0.01, 0.1, 1.0, 10.0});
  std::vector<std::vector<double>> per_thread(4);
  for (int t = 0; t < 4; ++t) {
    uint64_t rng = 1000 + static_cast<uint64_t>(t);
    for (int i = 0; i < 500; ++i) {
      const double u =
          static_cast<double>(Mix(rng) >> 11) / 9007199254740992.0;
      per_thread[t].push_back(std::pow(10.0, u * 4.0 - 3.0));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist, &per_thread, t] {
      for (double v : per_thread[t]) hist.Observe(v);
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<double> all;
  for (const auto& chunk : per_thread) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  std::sort(all.begin(), all.end());
  const HistogramSnapshot snapshot = hist.Snapshot();
  ASSERT_EQ(snapshot.TotalCount(), all.size());
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = ExactQuantile(all, q);
    const double estimate = snapshot.Quantile(q);
    const auto [lo, hi] = BucketInterval(snapshot, exact);
    EXPECT_GE(estimate, lo - 1e-12) << "q=" << q;
    EXPECT_LE(estimate, hi + 1e-12) << "q=" << q;
  }
}

// ---- Prometheus exposition ---------------------------------------------

TEST(PrometheusExportTest, RendersFamiliesBucketsAndQuantiles) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("pipeline.docs", 42);
  snapshot.gauges.emplace_back("detector.angle", 1.5);
  Histogram hist({1.0, 10.0});
  for (double v : {0.5, 5.0, 50.0}) hist.Observe(v);
  HistogramSnapshot h = hist.Snapshot();
  h.name = "rank.seconds";
  snapshot.histograms.push_back(std::move(h));

  const std::string text = snapshot.ToPrometheus();
  EXPECT_NE(text.find("# TYPE ie_pipeline_docs counter"), std::string::npos);
  EXPECT_NE(text.find("ie_pipeline_docs 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ie_detector_angle gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ie_rank_seconds histogram"),
            std::string::npos);
  // Cumulative buckets end in a mandatory +Inf bucket equal to _count.
  EXPECT_NE(text.find("ie_rank_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ie_rank_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("ie_rank_seconds_p50"), std::string::npos);
  EXPECT_NE(text.find("ie_rank_seconds_p99"), std::string::npos);

  // Bucket series must be non-decreasing in the order rendered.
  uint64_t prev = 0;
  size_t pos = 0;
  while ((pos = text.find("ie_rank_seconds_bucket", pos)) !=
         std::string::npos) {
    const size_t space = text.find(' ', pos);
    const uint64_t count = std::stoull(text.substr(space + 1));
    EXPECT_GE(count, prev);
    prev = count;
    pos = space;
  }
}

// ---- PipelineRecorder ledger -------------------------------------------

#if IE_OBSERVABILITY

TEST(PipelineRecorderTest, LedgerHasHeaderIterAndFooterLines) {
  const std::string path = TempPath("ledger.jsonl");
  PipelineRecorder::Options options;
  options.ledger_path = path;
  options.record_series = true;
  options.series_capacity = 4;
  PipelineRecorder recorder(std::move(options));
  ASSERT_TRUE(recorder.active());

  RecorderRunInfo info;
  info.ranker = "RSVM-IE";
  recorder.BeginRun(info);
  for (int i = 0; i < 10; ++i) {
    IterationRecord record;
    record.doc = static_cast<uint32_t>(i);
    record.useful = i % 2 == 0;
    record.useful_total = static_cast<uint64_t>(i / 2 + 1);
    record.executor_misses = static_cast<uint64_t>(i + 1);
    if (i == 3) {
      record.retrained = true;
      record.weight_delta_norm = 0.25;
      record.component_delta_norms = {0.25};
    }
    recorder.RecordIteration(record);
  }
  EXPECT_EQ(recorder.iterations(), 10u);
  RecorderRunSummary summary;
  summary.updates = 1;
  summary.useful_total = 5;
  recorder.EndRun(summary);

  const std::string contents = ReadFile(path);
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  std::vector<std::string> lines;
  std::istringstream stream(contents);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 12u);  // header + 10 iters + footer
  EXPECT_NE(lines.front().find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"schema\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"iter\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"i\":1"), std::string::npos);
  // dw/dw_c appear exactly on the retrained iteration.
  EXPECT_NE(lines[4].find("\"retrain\":1"), std::string::npos);
  EXPECT_NE(lines[4].find("\"dw\":"), std::string::npos);
  EXPECT_NE(lines[4].find("\"dw_c\":[0.25]"), std::string::npos);
  EXPECT_EQ(lines[5].find("\"dw\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"end\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"iterations\":10"), std::string::npos);

  // The in-memory series downsampled to the ring bound.
  const std::vector<IterationRecord> series = recorder.TakeSeries();
  ASSERT_FALSE(series.empty());
  ASSERT_LE(series.size(), 4u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series[i - 1].index, series[i].index);
  }
}

TEST(PipelineRecorderTest, InactiveWithoutSinks) {
  PipelineRecorder recorder(PipelineRecorder::Options{});
  EXPECT_FALSE(recorder.active());
  recorder.RecordIteration(IterationRecord{});
  EXPECT_EQ(recorder.iterations(), 1u);  // counts, but records nothing
  EXPECT_TRUE(recorder.TakeSeries().empty());
}

// ---- Pipeline integration ----------------------------------------------

TEST(FlightRecorderPipelineTest, RecordsSeriesAndLedgerWithoutChangingRun) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 11);
  config.sample_size = 120;

  const PipelineResult baseline =
      AdaptiveExtractionPipeline::Run(context, config);

  const std::string ledger_path = TempPath("run.jsonl");
  config.ledger_path = ledger_path;
  config.record_iterations = true;
  const PipelineResult recorded =
      AdaptiveExtractionPipeline::Run(context, config);

  // Passivity: the recorder must not perturb the run.
  EXPECT_EQ(recorded.processing_order, baseline.processing_order);
  EXPECT_EQ(recorded.update_positions, baseline.update_positions);
  EXPECT_EQ(recorded.final_weights, baseline.final_weights);

  // Series invariants: ascending indices, cumulative counters monotone,
  // executor identity hits + waits + misses == iterations consumed.
  ASSERT_FALSE(recorded.iterations.empty());
  const IterationRecord* prev = nullptr;
  uint64_t series_retrains = 0;
  for (const IterationRecord& rec : recorded.iterations) {
    if (prev != nullptr) {
      EXPECT_LT(prev->index, rec.index);
      EXPECT_LE(prev->useful_total, rec.useful_total);
      EXPECT_LE(prev->executor_misses, rec.executor_misses);
      EXPECT_LE(prev->full_rescores, rec.full_rescores);
    }
    EXPECT_EQ(rec.executor_hits + rec.executor_waits + rec.executor_misses,
              rec.index + 1);
    EXPECT_NEAR(rec.useful_rate,
                static_cast<double>(rec.useful_total) /
                    static_cast<double>(rec.index + 1),
                1e-12);
    if (rec.retrained) {
      ++series_retrains;
      EXPECT_GT(rec.weight_delta_norm, 0.0);
      ASSERT_EQ(rec.component_delta_norms.size(), 1u);  // RSVM-IE
      EXPECT_NEAR(rec.weight_delta_norm, rec.component_delta_norms[0],
                  1e-12);
    } else {
      EXPECT_EQ(rec.weight_delta_norm, 0.0);
    }
    prev = &rec;
  }
  // Downsampling may drop retrain iterations; it must not invent them.
  EXPECT_LE(series_retrains, recorded.update_positions.size());

  // Ledger: header + one line per processed document + footer.
  const std::string contents = ReadFile(ledger_path);
  ASSERT_FALSE(contents.empty());
  const size_t lines =
      static_cast<size_t>(std::count(contents.begin(), contents.end(), '\n'));
  EXPECT_EQ(lines, recorded.processing_order.size() + 2);
  EXPECT_NE(contents.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(contents.find("\"ranker\":\"RSVM-IE\""), std::string::npos);
  EXPECT_NE(contents.find("\"type\":\"end\""), std::string::npos);
  // Every update the pipeline logged appears as a retrain line.
  const std::string needle = "\"retrain\":1";
  size_t retrain_lines = 0;
  for (size_t pos = contents.find(needle); pos != std::string::npos;
       pos = contents.find(needle, pos + needle.size())) {
    ++retrain_lines;
  }
  EXPECT_EQ(retrain_lines, recorded.update_positions.size());
}

#else  // !IE_OBSERVABILITY

// obs-off: the recorder is inert and PipelineResult carries no iterations
// member at all — zero size cost, checked structurally. The check goes
// through a template parameter so the failed requirement is a substitution
// failure (false) instead of a hard error in this non-dependent context.
template <typename T>
constexpr bool kHasIterationsMember = requires(T r) { r.iterations; };
static_assert(!kHasIterationsMember<PipelineResult>,
              "PipelineResult::iterations must not exist in obs-off builds");

TEST(FlightRecorderObsOffTest, RecorderIsInert) {
  PipelineRecorder::Options options;
  options.ledger_path = "/nonexistent/dir/never-written.jsonl";
  options.record_series = true;
  PipelineRecorder recorder(std::move(options));
  EXPECT_FALSE(recorder.active());
  recorder.BeginRun(RecorderRunInfo{});
  recorder.RecordIteration(IterationRecord{});
  recorder.EndRun(RecorderRunSummary{});
  EXPECT_EQ(recorder.iterations(), 0u);
  EXPECT_TRUE(recorder.TakeSeries().empty());
}

TEST(FlightRecorderObsOffTest, PipelineIgnoresRecorderConfig) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 11);
  config.sample_size = 120;
  const std::string ledger_path = TempPath("run.jsonl");
  config.ledger_path = ledger_path;
  config.record_iterations = true;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_FALSE(result.processing_order.empty());
  EXPECT_TRUE(ReadFile(ledger_path).empty());  // never opened
}

#endif  // IE_OBSERVABILITY

}  // namespace
}  // namespace ie
