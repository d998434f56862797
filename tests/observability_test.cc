// Tests for the observability layer (common/metrics.h, common/trace.h):
// instrument semantics, snapshot determinism and deltas, Chrome-trace
// export invariants, pipeline integration, and a multi-threaded stress
// surface (ObservabilityStress.*) re-spun under the tsan preset by
// tools/run_sanitized_tests.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/work_queue.h"
#include "test_util.h"

namespace ie {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + name;
}

// ---- Counter / Gauge ---------------------------------------------------

TEST(MetricsInstrumentTest, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(MetricsInstrumentTest, GaugeKeepsLastValue) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

// ---- Histogram ---------------------------------------------------------

TEST(HistogramTest, BucketPlacementAndSummary) {
  Histogram hist({1.0, 10.0, 100.0});
  for (double v : {0.5, 1.0, 5.0, 50.0, 500.0}) hist.Observe(v);
  const HistogramSnapshot snapshot = hist.Snapshot();
  // counts[i] covers values <= bounds[i]; last slot is overflow.
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 2u);  // 0.5, 1.0 (inclusive upper bound)
  EXPECT_EQ(snapshot.counts[1], 1u);  // 5.0
  EXPECT_EQ(snapshot.counts[2], 1u);  // 50.0
  EXPECT_EQ(snapshot.counts[3], 1u);  // 500.0 overflow
  EXPECT_EQ(snapshot.TotalCount(), 5u);
  EXPECT_DOUBLE_EQ(snapshot.summary.min(), 0.5);
  EXPECT_DOUBLE_EQ(snapshot.summary.max(), 500.0);
  EXPECT_NEAR(snapshot.summary.mean(), 111.3, 1e-9);
}

TEST(HistogramTest, MergesThreadShardsExactly) {
  Histogram hist({1.0, 2.0, 3.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // 0.5, 1.5, 2.5, 3.5 -> one value per bucket (last one overflow).
        hist.Observe(static_cast<double>(t % 4) + 0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.TotalCount(),
            static_cast<uint64_t>(kThreads * kPerThread));
  for (size_t b = 0; b < snapshot.counts.size(); ++b) {
    EXPECT_EQ(snapshot.counts[b], static_cast<uint64_t>(kPerThread))
        << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(snapshot.summary.min(), 0.5);
  EXPECT_DOUBLE_EQ(snapshot.summary.max(), 3.5);
  EXPECT_NEAR(snapshot.summary.mean(), 2.0, 1e-9);
}

TEST(HistogramTest, DefaultBoundsAreLatencyScale) {
  Histogram hist({});
  EXPECT_EQ(hist.bounds(), DefaultLatencyBounds());
  EXPECT_GT(hist.bounds().size(), 15u);
  for (size_t i = 1; i < hist.bounds().size(); ++i) {
    EXPECT_LT(hist.bounds()[i - 1], hist.bounds()[i]);
  }
}

// ---- Registry + snapshot ----------------------------------------------

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&registry.GetGauge("test.x"), &registry.GetGauge("test.y"));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("z.last").Add(3);
  registry.GetCounter("a.first").Add(1);
  registry.GetGauge("m.middle").Set(0.5);
  registry.GetHistogram("h.x", {1.0}).Observe(0.5);
  const MetricsSnapshot s1 = registry.Snapshot();
  const MetricsSnapshot s2 = registry.Snapshot();
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].first, "a.first");
  EXPECT_EQ(s1.counters[1].first, "z.last");
  EXPECT_EQ(s1.counters, s2.counters);  // no writers between snapshots
  EXPECT_EQ(s1.gauges, s2.gauges);
  EXPECT_EQ(s1.CounterOr("z.last"), 3u);
  EXPECT_EQ(s1.CounterOr("missing", 7u), 7u);
  EXPECT_DOUBLE_EQ(s1.GaugeOr("m.middle"), 0.5);
  ASSERT_NE(s1.FindHistogram("h.x"), nullptr);
  EXPECT_EQ(s1.FindHistogram("h.x")->TotalCount(), 1u);
  EXPECT_EQ(s1.FindHistogram("absent"), nullptr);
}

TEST(MetricsSnapshotTest, SetCounterKeepsOrdering) {
  MetricsSnapshot snapshot;
  snapshot.SetCounter("b", 2);
  snapshot.SetCounter("a", 1);
  snapshot.SetCounter("c", 3);
  snapshot.SetCounter("b", 20);  // overwrite
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "a");
  EXPECT_EQ(snapshot.counters[1].first, "b");
  EXPECT_EQ(snapshot.counters[1].second, 20u);
  EXPECT_EQ(snapshot.counters[2].first, "c");
}

TEST(MetricsSnapshotTest, DeltaSubtractsCountersAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(10);
  Histogram& hist = registry.GetHistogram("h", {1.0, 2.0});
  hist.Observe(0.5);
  hist.Observe(1.5);
  const MetricsSnapshot start = registry.Snapshot();

  registry.GetCounter("c").Add(5);
  registry.GetCounter("new").Add(2);  // absent at start: passes through
  hist.Observe(0.25);
  hist.Observe(5.0);
  const MetricsSnapshot delta = registry.Snapshot().DeltaSince(start);

  EXPECT_EQ(delta.CounterOr("c"), 5u);
  EXPECT_EQ(delta.CounterOr("new"), 2u);
  const HistogramSnapshot* h = delta.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->TotalCount(), 2u);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 1u);  // 0.25
  EXPECT_EQ(h->counts[1], 0u);
  EXPECT_EQ(h->counts[2], 1u);  // 5.0 overflow
  // Window summary inverted from the merge algebra: samples {0.25, 5.0}.
  EXPECT_NEAR(h->summary.mean(), 2.625, 1e-9);
  EXPECT_NEAR(h->summary.variance(), 11.28125, 1e-6);
}

TEST(MetricsSnapshotTest, JsonContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("runs").Add(1);
  registry.GetGauge("angle").Set(2.5);
  registry.GetHistogram("lat", {1.0}).Observe(0.5);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"angle\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [{\"le\": 1, \"count\": 1}]"),
            std::string::npos);
  // Balanced braces (cheap well-formedness guard; tools/check_trace.py
  // does full JSON parsing for traces).
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
}

// ---- Macros ------------------------------------------------------------

TEST(MetricsMacroTest, MacrosRecordIntoGlobalRegistry) {
  const uint64_t before =
      MetricsRegistry::Global().Snapshot().CounterOr("test.macro_counter");
  IE_METRIC_COUNT("test.macro_counter");
  IE_METRIC_COUNT_N("test.macro_counter", 4);
  IE_METRIC_GAUGE_SET("test.macro_gauge", 1.5);
  IE_METRIC_HIST_OBSERVE("test.macro_hist", 0.001);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
#if IE_OBSERVABILITY
  EXPECT_EQ(snapshot.CounterOr("test.macro_counter"), before + 5);
  EXPECT_DOUBLE_EQ(snapshot.GaugeOr("test.macro_gauge"), 1.5);
  ASSERT_NE(snapshot.FindHistogram("test.macro_hist"), nullptr);
  EXPECT_GE(snapshot.FindHistogram("test.macro_hist")->TotalCount(), 1u);
#else
  // Compiled out: the macros must leave the registry untouched.
  EXPECT_EQ(snapshot.CounterOr("test.macro_counter"), before);
  EXPECT_EQ(snapshot.FindHistogram("test.macro_hist"), nullptr);
#endif
}

// ---- Tracer ------------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Global().Stop(); }
};

TEST_F(TracerTest, ExportsBalancedSpans) {
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Global().Start());
  EXPECT_FALSE(Tracer::Global().Start());  // one session at a time
  {
    IE_TRACE_SCOPE("outer");
    IE_TRACE_SCOPE("inner");
    IE_TRACE_INSTANT("tick");
    IE_TRACE_COUNTER("depth", 3);
  }
  ASSERT_TRUE(Tracer::Global().StopAndExport(path).ok());
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#if IE_OBSERVABILITY
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  EXPECT_EQ(CountOccurrences(json, "\"name\": \"outer\""), 2u);  // B + E
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"I\""), 1u);
  EXPECT_NE(json.find("\"args\": {\"value\": 3}"), std::string::npos);
#endif
  std::remove(path.c_str());
}

#if IE_OBSERVABILITY

TEST_F(TracerTest, InactiveTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::Global().active());
  IE_TRACE_SCOPE("ignored");
  IE_TRACE_INSTANT("ignored");
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Global().Start());
  ASSERT_TRUE(Tracer::Global().StopAndExport(path).ok());
  const std::string json = ReadFile(path);
  EXPECT_EQ(json.find("ignored"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TracerTest, FullBufferDropsWholeSpansAndStaysBalanced) {
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Global().Start(/*capacity_per_thread=*/8));
  for (int i = 0; i < 100; ++i) {
    IE_TRACE_SCOPE("span");
  }
  EXPECT_GT(Tracer::Global().dropped_events(), 0u);
  ASSERT_TRUE(Tracer::Global().StopAndExport(path).ok());
  const std::string json = ReadFile(path);
  const size_t begins = CountOccurrences(json, "\"ph\": \"B\"");
  EXPECT_GT(begins, 0u);
  EXPECT_LE(begins, 4u);  // capacity 8 → at most 4 whole spans
  EXPECT_EQ(begins, CountOccurrences(json, "\"ph\": \"E\""));
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TracerTest, OpenSpansAreClosedByExport) {
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Global().Start());
  TraceBuffer* buffer = Tracer::Global().ThreadBuffer();
  ASSERT_NE(buffer, nullptr);
  ASSERT_TRUE(buffer->BeginSpan("unclosed"));
  ASSERT_TRUE(Tracer::Global().StopAndExport(path).ok());
  const std::string json = ReadFile(path);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  EXPECT_EQ(CountOccurrences(json, "\"name\": \"unclosed\""), 2u);
  std::remove(path.c_str());
}

TEST_F(TracerTest, TimestampsAreMonotonicPerBuffer) {
  ASSERT_TRUE(Tracer::Global().Start());
  for (int i = 0; i < 50; ++i) IE_TRACE_INSTANT("tick");
  TraceBuffer* buffer = Tracer::Global().ThreadBuffer();
  ASSERT_NE(buffer, nullptr);
  Tracer::Global().Stop();
  ASSERT_GE(buffer->size(), 50u);
  for (size_t i = 1; i < buffer->size(); ++i) {
    EXPECT_GE(buffer->event(i).ts_ns, buffer->event(i - 1).ts_ns);
  }
}

#endif  // IE_OBSERVABILITY

// ---- Pipeline integration ----------------------------------------------

TEST(PipelineObservabilityTest, RunPopulatesMetricsAndTrace) {
  const SharedContext context = test::MakeSharedContext(RelationId::kPersonOrganization);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, /*seed=*/7);
  config.sample_size = 60;
  const std::string path = TempPath("pipeline_trace.json");
  config.trace_path = path;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);

  // The stamped run-scoped counters always exist (any IE_OBSERVABILITY).
  EXPECT_EQ(result.metrics.CounterOr("pipeline.documents_processed"),
            result.processing_order.size());
  EXPECT_EQ(result.speculative_misses(), result.processing_order.size());
  EXPECT_GT(result.full_rescores(), 0u);
#if IE_OBSERVABILITY
  EXPECT_GT(result.metrics.CounterOr("learn.pegasos_steps"), 0u);
  EXPECT_GT(result.metrics.CounterOr("detector.checks"), 0u);
  ASSERT_NE(result.metrics.FindHistogram("pipeline.rank_seconds"), nullptr);
  EXPECT_EQ(result.metrics.FindHistogram("pipeline.rank_seconds")
                ->TotalCount(),
            result.full_rescores());
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  for (const char* span : {"pipeline.run", "pipeline.sample",
                           "pipeline.warmup", "pipeline.rank",
                           "pipeline.consume"}) {
    EXPECT_NE(json.find(span), std::string::npos) << span;
  }
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
#endif
  std::remove(path.c_str());
}

TEST(PipelineObservabilityTest, MetricsDisabledStillStampsRunCounters) {
  const SharedContext context = test::MakeSharedContext(RelationId::kPersonOrganization);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kNone, /*seed=*/7);
  config.sample_size = 60;
  config.metrics_enabled = false;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_EQ(result.speculative_misses(), result.processing_order.size());
  EXPECT_GT(result.full_rescores(), 0u);
  // No registry delta: only the stamped run-scoped counters, no histograms.
  EXPECT_TRUE(result.metrics.histograms.empty());
}

TEST(PipelineObservabilityTest, MetricsAreRunScoped) {
  const SharedContext context = test::MakeSharedContext(RelationId::kPersonOrganization);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kNone, /*seed=*/7);
  config.sample_size = 60;
  const PipelineResult a = AdaptiveExtractionPipeline::Run(context, config);
  const PipelineResult b = AdaptiveExtractionPipeline::Run(context, config);
  // Deltas, not process totals: the second run reports its own work, which
  // for an identical config equals the first run's (deterministic loop).
  EXPECT_EQ(a.metrics.CounterOr("pipeline.documents_processed"),
            b.metrics.CounterOr("pipeline.documents_processed"));
  EXPECT_EQ(a.full_rescores(), b.full_rescores());
#if IE_OBSERVABILITY
  EXPECT_EQ(a.metrics.CounterOr("learn.pegasos_steps"),
            b.metrics.CounterOr("learn.pegasos_steps"));
#endif
}

// ---- Concurrency stress (re-spun under tsan by run_sanitized_tests.sh) --

TEST(ObservabilityStress, RegistryAndTracerFromWorkQueueWorkers) {
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Global().Start());
  MetricsRegistry& registry = MetricsRegistry::Global();
  WorkQueue<int> queue;
#if IE_OBSERVABILITY
  queue.set_latency_histogram(
      &registry.GetHistogram("stress.queue_latency_seconds"));
#endif
  const uint64_t counter_before =
      registry.Snapshot().CounterOr("stress.items");

  constexpr int kWorkers = 4;
  constexpr int kItems = 2000;
  std::atomic<int> consumed{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      int item = 0;
      while (queue.Pop(&item)) {
        IE_TRACE_SCOPE("stress.item");
        IE_METRIC_COUNT("stress.items");
        IE_METRIC_GAUGE_SET("stress.last_item", item);
        IE_METRIC_HIST_OBSERVE("stress.item_value", item);
        IE_TRACE_COUNTER("stress.queue_depth", queue.size());
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread snapshotter([&] {
    // Concurrent snapshots while shards are being written: values may lag
    // but reads must be race-free (the TSan gate pins this).
    for (int i = 0; i < 50; ++i) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      (void)snapshot.CounterOr("stress.items");
    }
  });
  for (int i = 0; i < kItems; ++i) queue.Push(i);
  queue.Close();
  for (std::thread& worker : workers) worker.join();
  snapshotter.join();

  EXPECT_EQ(consumed.load(), kItems);
  const MetricsSnapshot snapshot = registry.Snapshot();
#if IE_OBSERVABILITY
  EXPECT_EQ(snapshot.CounterOr("stress.items"),
            counter_before + static_cast<uint64_t>(kItems));
  const HistogramSnapshot* lat =
      snapshot.FindHistogram("stress.queue_latency_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->TotalCount(), static_cast<uint64_t>(kItems));
#else
  EXPECT_EQ(snapshot.CounterOr("stress.items"), counter_before);
#endif
  ASSERT_TRUE(Tracer::Global().StopAndExport(path).ok());
  const std::string json = ReadFile(path);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  std::remove(path.c_str());
}

TEST(ObservabilityStress, ConcurrentLogLevelAndLogging) {
  // Pins the documented contract in common/logging.h: Get/SetLogLevel may
  // race freely with concurrent logging (atomic level, whole-message
  // writes).
  const LogLevel original = GetLogLevel();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      SetLogLevel(LogLevel::kError);
      SetLogLevel(LogLevel::kWarn);
    }
  });
  std::vector<std::thread> loggers;
  loggers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    loggers.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        // kDebug stays below both toggled levels, so nothing prints and
        // the suite output stays clean while the level race is exercised.
        IE_LOG(kDebug) << "stress " << i;
      }
    });
  }
  for (std::thread& logger : loggers) logger.join();
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  SetLogLevel(original);
}

}  // namespace
}  // namespace ie
