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

// ---- Counter -----------------------------------------------------------

TEST(MetricsInstrumentTest, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
}

// ---- Registry + snapshot ----------------------------------------------

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("z.last").Add(3);
  registry.GetCounter("a.first").Add(1);
  const MetricsSnapshot s1 = registry.Snapshot();
  const MetricsSnapshot s2 = registry.Snapshot();
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].first, "a.first");
  EXPECT_EQ(s1.counters[1].first, "z.last");
  EXPECT_EQ(s1.counters, s2.counters);  // no writers between snapshots
  EXPECT_EQ(s1.CounterOr("z.last"), 3u);
  EXPECT_EQ(s1.CounterOr("missing", 7u), 7u);
}

TEST(MetricsSnapshotTest, DeltaSubtractsCounters) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(10);
  const MetricsSnapshot start = registry.Snapshot();

  registry.GetCounter("c").Add(5);
  registry.GetCounter("new").Add(2);  // absent at start: passes through
  const MetricsSnapshot delta = registry.Snapshot().DeltaSince(start);

  EXPECT_EQ(delta.CounterOr("c"), 5u);
  EXPECT_EQ(delta.CounterOr("new"), 2u);
}

TEST(MetricsSnapshotTest, JsonContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("runs").Add(1);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 1"), std::string::npos);
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
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterOr("test.macro_counter"), before + 5);
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
    IE_TRACE_COUNTER("depth", 3);
  }
  ASSERT_TRUE(Tracer::Global().StopAndExport(path).ok());
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  EXPECT_EQ(CountOccurrences(json, "\"name\": \"outer\""), 2u);  // B + E
  EXPECT_NE(json.find("\"args\": {\"value\": 3}"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TracerTest, InactiveTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::Global().active());
  IE_TRACE_SCOPE("ignored");
  IE_TRACE_COUNTER("ignored", 1);
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
  for (int i = 0; i < 50; ++i) IE_TRACE_COUNTER("tick", i);
  TraceBuffer* buffer = Tracer::Global().ThreadBuffer();
  ASSERT_NE(buffer, nullptr);
  Tracer::Global().Stop();
  ASSERT_GE(buffer->size(), 50u);
  for (size_t i = 1; i < buffer->size(); ++i) {
    EXPECT_GE(buffer->event(i).ts_ns, buffer->event(i - 1).ts_ns);
  }
}

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

  EXPECT_EQ(result.speculative_misses, result.processing_order.size());
  EXPECT_GT(result.full_rescores, 0u);
  EXPECT_GT(result.metrics.CounterOr("learn.pegasos_steps"), 0u);
  EXPECT_GT(result.metrics.CounterOr("detector.checks"), 0u);
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  for (const char* span : {"pipeline.run", "pipeline.sample",
                           "pipeline.warmup", "pipeline.rank",
                           "pipeline.consume"}) {
    EXPECT_NE(json.find(span), std::string::npos) << span;
  }
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  // One re-rank span per scoring pass over the pending pool.
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_EQ(
      CountOccurrences(json, "\"name\": \"pipeline.rank\", \"ph\": \"B\""),
      result.full_rescores);
  std::remove(path.c_str());
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
  EXPECT_EQ(a.full_rescores, b.full_rescores);
  EXPECT_EQ(a.metrics.CounterOr("executor.misses"),
            b.metrics.CounterOr("executor.misses"));
  EXPECT_EQ(a.metrics.CounterOr("learn.pegasos_steps"),
            b.metrics.CounterOr("learn.pegasos_steps"));
}

/// The unsigned value of `"key":` in one ledger line (0 when absent).
uint64_t LedgerUint(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  return pos == std::string::npos
             ? 0
             : std::stoull(line.substr(pos + needle.size()));
}

// Every sink reports the same run counters: the result fields, the last
// ledger iteration's cumulative totals, and the registry delta that
// perfbench reads by name.
TEST(PipelineObservabilityTest, RunCountersAgreeAcrossSinks) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonOrganization);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, /*seed=*/7);
  config.sample_size = 60;
  config.extract_threads = 2;
  const std::string path = TempPath("ledger.jsonl");
  config.ledger_path = path;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);

  std::istringstream ledger(ReadFile(path));
  std::string last_iter;
  for (std::string line; std::getline(ledger, line);) {
    if (line.find("\"type\":\"iter\"") != std::string::npos) last_iter = line;
  }
  ASSERT_FALSE(last_iter.empty());
  const struct {
    const char* ledger_key;
    const char* metric;
    size_t field;
  } sinks[] = {
      {"hits", "executor.hits", result.speculative_hits},
      {"waits", "executor.waits", result.speculative_waits},
      {"misses", "executor.misses", result.speculative_misses},
      {"cancelled", "executor.cancelled", result.speculative_cancelled},
      {"full_rescores", "rerank.full_rescores", result.full_rescores},
  };
  for (const auto& sink : sinks) {
    SCOPED_TRACE(sink.metric);
    EXPECT_EQ(LedgerUint(last_iter, sink.ledger_key), sink.field);
    EXPECT_EQ(result.metrics.CounterOr(sink.metric), sink.field);
  }
  EXPECT_EQ(result.speculative_hits + result.speculative_waits +
                result.speculative_misses,
            result.processing_order.size());
  EXPECT_GT(result.full_rescores, 1u);
  std::remove(path.c_str());
}

// ---- Concurrency stress (re-spun under tsan by run_sanitized_tests.sh) --

TEST(ObservabilityStress, RegistryAndTracerFromWorkQueueWorkers) {
  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Global().Start());
  MetricsRegistry& registry = MetricsRegistry::Global();
  WorkQueue<int> queue;
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
        IE_TRACE_COUNTER("stress.queue_depth", queue.size());
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread snapshotter([&] {
    // Concurrent snapshots while workers record: values may lag but reads
    // must be race-free (the TSan gate pins this).
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
  EXPECT_EQ(registry.Snapshot().CounterOr("stress.items"),
            counter_before + static_cast<uint64_t>(kItems));
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
