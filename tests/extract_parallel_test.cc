// Speculative parallel extraction (DESIGN.md §9): unit tests for the
// threading primitives and the ExtractExecutor, plus end-to-end proofs
// that pipeline output is byte-identical at every extract_threads setting
// across rankers, detectors, access modes, and live-vs-cached extraction.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/work_queue.h"
#include "pipeline/extract_executor.h"
#include "pipeline/pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

// ---- WorkQueue -------------------------------------------------------------

TEST(WorkQueueTest, FifoOrder) {
  WorkQueue<int> queue;
  for (int i = 0; i < 5; ++i) queue.Push(i);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, i);
  }
}

TEST(WorkQueueTest, PopReturnsFalseAfterCloseAndDrain) {
  WorkQueue<int> queue;
  queue.Push(7);
  queue.Close();
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(WorkQueueTest, PushAfterCloseIsRejected) {
  WorkQueue<int> queue;
  EXPECT_TRUE(queue.Push(0));
  queue.Close();
  EXPECT_FALSE(queue.Push(1));
  EXPECT_EQ(queue.size(), 1u);  // only the pre-close item remains
  int out = -1;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(WorkQueueTest, RemoveIfDropsOnlyMatching) {
  WorkQueue<int> queue;
  for (int i = 0; i < 10; ++i) queue.Push(i);
  EXPECT_EQ(queue.RemoveIf([](int v) { return v % 2 == 0; }), 5u);
  int out = -1;
  for (int expected : {1, 3, 5, 7, 9}) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, expected);
  }
}

TEST(WorkQueueTest, ConcurrentProducersConsumersDeliverEachItemOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  WorkQueue<int> queue;
  std::vector<std::atomic<int>> delivered(kProducers * kPerProducer);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &delivered] {
      int item = 0;
      while (queue.Pop(&item)) delivered[item].fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();
  for (const auto& count : delivered) EXPECT_EQ(count.load(), 1);
}

TEST(WorkQueueTest, ConcurrentCloseReleasesBlockedPoppers) {
  // Close() racing blocked Pop() waits: every popper must wake and exit,
  // and the two pre-close items must both be delivered exactly once.
  constexpr int kRounds = 25;
  constexpr int kPoppers = 4;
  for (int round = 0; round < kRounds; ++round) {
    WorkQueue<int> queue;
    std::atomic<int> popped{0};
    std::vector<std::thread> poppers;
    for (int i = 0; i < kPoppers; ++i) {
      poppers.emplace_back([&queue, &popped] {
        int item = 0;
        while (queue.Pop(&item)) popped.fetch_add(1);
      });
    }
    queue.Push(1);
    queue.Push(2);
    queue.Close();  // races the poppers' blocking waits
    for (std::thread& t : poppers) t.join();  // must not hang
    EXPECT_EQ(popped.load(), 2);
  }
}

TEST(WorkQueueTest, ConcurrentPushVsCloseNeverLosesAcceptedItems) {
  // A Push that returns true is a delivery promise even when Close() lands
  // mid-loop: everything accepted must still be drainable afterwards.
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    WorkQueue<int> queue;
    std::atomic<int> accepted{0};
    std::thread producer([&queue, &accepted] {
      for (int i = 0; i < 1000; ++i) {
        if (queue.Push(i)) accepted.fetch_add(1);
      }
    });
    std::thread closer([&queue] { queue.Close(); });
    producer.join();
    closer.join();
    int drained = 0;
    int item = 0;
    while (queue.Pop(&item)) ++drained;
    EXPECT_EQ(drained, accepted.load());
  }
}

// ---- Latch -----------------------------------------------------------------

TEST(LatchTest, WaitReleasesAfterAllCountDowns) {
  Latch latch(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&latch] { latch.CountDown(); });
  }
  latch.Wait();  // must not deadlock
  for (std::thread& t : threads) t.join();
}

TEST(LatchTest, ZeroCountDoesNotBlock) {
  Latch latch(0);
  latch.Wait();
}

TEST(LatchTest, ExtraCountDownsAreBenign) {
  Latch latch(1);
  latch.CountDown();
  latch.CountDown();
  latch.Wait();
}

TEST(LatchTest, ReleasedLatchNeverRearms) {
  // A Latch is single-use: once the count hits zero it stays released, and
  // CountDown past zero must not re-arm it or deadlock a later Wait.
  Latch latch(2);
  latch.CountDown();
  latch.CountDown();
  latch.Wait();
  latch.CountDown();  // past zero
  latch.Wait();       // must return immediately, not block
}

TEST(LatchTest, RepeatedWaitReturnsImmediately) {
  Latch latch(1);
  latch.CountDown();
  for (int i = 0; i < 3; ++i) latch.Wait();
}

TEST(LatchTest, ConcurrentWaitersAllRelease) {
  constexpr int kRounds = 25;
  constexpr int kWaiters = 4;
  for (int round = 0; round < kRounds; ++round) {
    Latch latch(kWaiters);
    std::atomic<int> released{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < kWaiters; ++i) {
      waiters.emplace_back([&latch, &released] {
        latch.CountDown();  // waiters double as counters: max contention
        latch.Wait();
        released.fetch_add(1);
      });
    }
    for (std::thread& t : waiters) t.join();  // must not hang
    EXPECT_EQ(released.load(), kWaiters);
  }
}

// ---- ExtractExecutor -------------------------------------------------------

LabeledExample MakeExample(DocId doc) {
  LabeledExample example;
  example.features = SparseVector::FromUnsorted(
      {{doc, 1.0f}, {doc + 1, static_cast<float>(doc)}});
  example.label = (doc % 2 == 0) ? 1 : -1;
  return example;
}

void ExpectExample(const LabeledExample& example, DocId doc) {
  const LabeledExample expected = MakeExample(doc);
  EXPECT_EQ(example.label, expected.label);
  ASSERT_EQ(example.features.size(), expected.features.size());
  for (size_t i = 0; i < expected.features.size(); ++i) {
    EXPECT_EQ(example.features.id(i), expected.features.id(i));
    EXPECT_EQ(example.features.value(i), expected.features.value(i));
  }
}

TEST(ExtractExecutorTest, SerialModeComputesInline) {
  ExtractExecutorOptions options;
  options.threads = 1;
  ExtractExecutor executor(MakeExample, options);
  EXPECT_FALSE(executor.speculative());
  executor.Prefetch(3);  // no-op
  for (DocId doc : {3u, 1u, 2u}) ExpectExample(executor.Take(doc), doc);
  const ExtractExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.waits, 0u);
  EXPECT_EQ(stats.tasks_executed, 0u);
}

TEST(ExtractExecutorTest, SpeculativeResultsMatchSerial) {
  ExtractExecutorOptions options;
  options.threads = 4;
  options.prefetch_window = 16;
  ExtractExecutor executor(MakeExample, options);
  EXPECT_TRUE(executor.speculative());
  for (DocId doc = 0; doc < 200; ++doc) {
    executor.Prefetch(doc);  // window caps outstanding work at 16
    ExpectExample(executor.Take(doc), doc);
  }
  const ExtractExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.hits + stats.waits + stats.misses, 200u);
}

TEST(ExtractExecutorTest, TakeWithoutPrefetchIsAMiss) {
  ExtractExecutorOptions options;
  options.threads = 2;
  ExtractExecutor executor(MakeExample, options);
  ExpectExample(executor.Take(42), 42);
  EXPECT_EQ(executor.stats().misses, 1u);
}

TEST(ExtractExecutorTest, CancelQueuedDropsPendingWork) {
  // One worker blocked on the first document keeps later prefetches queued
  // so CancelQueued has something deterministic to drop.
  Latch release(1);
  std::atomic<size_t> executed{0};
  ExtractExecutorOptions options;
  options.threads = 2;  // both workers end up blocked on gated docs
  options.prefetch_window = 8;
  ExtractExecutor executor(
      [&](DocId doc) {
        executed.fetch_add(1);
        if (doc < 2) release.Wait();
        return MakeExample(doc);
      },
      options);
  executor.Prefetch(0);
  executor.Prefetch(1);
  while (executed.load() < 2) std::this_thread::yield();  // workers gated
  for (DocId doc = 2; doc < 8; ++doc) executor.Prefetch(doc);
  EXPECT_EQ(executor.CancelQueued(), 6u);
  EXPECT_EQ(executor.stats().cancelled, 6u);
  release.CountDown();
  // Cancelled docs are recomputed inline; gated docs are awaited or ready.
  for (DocId doc = 0; doc < 8; ++doc) ExpectExample(executor.Take(doc), doc);
}

TEST(ExtractExecutorTest, PropagatesWorkFunctionExceptions) {
  ExtractExecutorOptions options;
  options.threads = 2;
  ExtractExecutor executor(
      [](DocId doc) -> LabeledExample {
        if (doc == 13) throw std::runtime_error("boom");
        return MakeExample(doc);
      },
      options);
  executor.Prefetch(13);
  executor.Prefetch(14);
  EXPECT_THROW(executor.Take(13), std::runtime_error);
  ExpectExample(executor.Take(14), 14);
}

TEST(ExtractExecutorStress, RandomizedPrefetchTakeCancel) {
  // TSan-focused stress: hammer the prefetch/take/cancel surface from the
  // consumer while workers race on the cache. run_sanitized_tests.sh
  // repeats this suite under the tsan preset.
  ExtractExecutorOptions options;
  options.threads = 8;
  options.prefetch_window = 32;
  ExtractExecutor executor(MakeExample, options);
  DocId next = 0;
  for (int round = 0; round < 50; ++round) {
    const DocId base = next;
    for (DocId doc = base; doc < base + 40; ++doc) executor.Prefetch(doc);
    for (DocId doc = base; doc < base + 20; ++doc) {
      ExpectExample(executor.Take(doc), doc);
    }
    executor.CancelQueued();
    for (DocId doc = base + 20; doc < base + 40; ++doc) {
      ExpectExample(executor.Take(doc), doc);
    }
    next = base + 40;
  }
  const ExtractExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.hits + stats.waits + stats.misses, 50u * 40u);
}

// ---- End-to-end determinism ------------------------------------------------

void ExpectSameRun(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.processing_order, b.processing_order);
  EXPECT_EQ(a.processed_useful, b.processed_useful);
  EXPECT_EQ(a.update_positions, b.update_positions);
  EXPECT_EQ(a.warmup_documents, b.warmup_documents);
  EXPECT_EQ(a.pool_size, b.pool_size);
  EXPECT_EQ(a.pool_useful, b.pool_useful);
  EXPECT_DOUBLE_EQ(a.extraction_seconds, b.extraction_seconds);
  EXPECT_EQ(a.full_rescores, b.full_rescores);
  EXPECT_EQ(a.peak_buffer_examples, b.peak_buffer_examples);
  EXPECT_EQ(a.final_model_features, b.final_model_features);
  EXPECT_EQ(a.features_added_per_update, b.features_added_per_update);
  EXPECT_EQ(a.features_removed_per_update, b.features_removed_per_update);
}

PipelineConfig ParallelConfig(RankerKind ranker, UpdateKind update,
                              uint64_t seed) {
  PipelineConfig config =
      PipelineConfig::Defaults(ranker, SamplerKind::kSRS, update, seed);
  config.sample_size = 120;
  return config;
}

struct MatrixCase {
  RankerKind ranker;
  UpdateKind update;
  uint64_t seed;
};

class ExtractParallelMatrixTest
    : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ExtractParallelMatrixTest, ByteIdenticalAcrossThreadCounts) {
  const MatrixCase param = GetParam();
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(param.ranker, param.update, param.seed);
  const PipelineResult serial =
      AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_EQ(serial.speculative_hits, 0u);
  for (size_t threads : {2u, 8u}) {
    config.extract_threads = threads;
    const PipelineResult speculative =
        AdaptiveExtractionPipeline::Run(context, config);
    ExpectSameRun(serial, speculative);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankersAndDetectors, ExtractParallelMatrixTest,
    ::testing::Values(
        MatrixCase{RankerKind::kRSVMIE, UpdateKind::kModC, 101},
        MatrixCase{RankerKind::kRSVMIE, UpdateKind::kFeatS, 103},
        MatrixCase{RankerKind::kBAggIE, UpdateKind::kModC, 107},
        MatrixCase{RankerKind::kBAggIE, UpdateKind::kFeatS, 109},
        MatrixCase{RankerKind::kRSVMIE, UpdateKind::kModC, 113},
        MatrixCase{RankerKind::kRandom, UpdateKind::kNone, 127},
        MatrixCase{RankerKind::kPerfect, UpdateKind::kNone, 131}));

TEST(ExtractParallelTest, NarrowWindowStaysByteIdentical) {
  // prefetch_window smaller than the re-rank cadence exercises the
  // requeue-on-update path aggressively.
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 137);
  const PipelineResult serial =
      AdaptiveExtractionPipeline::Run(context, config);
  config.extract_threads = 4;
  for (size_t window : {1u, 3u, 256u}) {
    config.prefetch_window = window;
    ExpectSameRun(serial, AdaptiveExtractionPipeline::Run(context, config));
  }
}

TEST(ExtractParallelTest, SearchInterfaceByteIdentical) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 139);
  config.access = AccessMode::kSearchInterface;
  const PipelineResult serial =
      AdaptiveExtractionPipeline::Run(context, config);
  config.extract_threads = 8;
  ExpectSameRun(serial, AdaptiveExtractionPipeline::Run(context, config));
}

TEST(ExtractParallelTest, SpeculationActuallyEngages) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 149);
  config.extract_threads = 2;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_GT(result.speculative_hits + result.speculative_waits, 0u);
  EXPECT_GT(result.extract_cpu_seconds, 0.0);
}

TEST(ExtractParallelTest, LiveExtractionMatchesCachedOutcomes) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 151);
  const PipelineResult cached =
      AdaptiveExtractionPipeline::Run(context, config);
  context.extraction_system = &test::SharedSystem(RelationId::kPersonCharge);
  const PipelineResult live =
      AdaptiveExtractionPipeline::Run(context, config);
  ExpectSameRun(cached, live);
  // And the live path is itself thread-count invariant.
  config.extract_threads = 8;
  ExpectSameRun(cached, AdaptiveExtractionPipeline::Run(context, config));
}

TEST(ExtractParallelTest, ParallelOutcomeComputeMatchesSerial) {
  const Corpus& corpus = test::SharedCorpus();
  const ExtractionSystem& system =
      test::SharedSystem(RelationId::kPersonCharge);
  const ExtractionOutcomes serial = ExtractionOutcomes::Compute(
      system, corpus);
  const ExtractionOutcomes parallel = ExtractionOutcomes::Compute(
      system, corpus, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (DocId id = 0; id < corpus.size(); ++id) {
    ASSERT_EQ(serial.useful(id), parallel.useful(id)) << "doc " << id;
    ASSERT_EQ(serial.tuples(id).size(), parallel.tuples(id).size())
        << "doc " << id;
    ASSERT_EQ(serial.AttributeValues(id), parallel.AttributeValues(id))
        << "doc " << id;
  }
}

TEST(ExtractParallelTest, ParallelFeaturizePoolMatchesSerial) {
  const Corpus& corpus = test::SharedCorpus();
  const Featurizer& featurizer = test::SharedFeaturizer();
  const std::vector<SparseVector> serial = FeaturizePool(corpus, featurizer);
  const std::vector<SparseVector> parallel =
      FeaturizePool(corpus, featurizer, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size()) << "doc " << i;
    for (size_t j = 0; j < serial[i].size(); ++j) {
      ASSERT_EQ(serial[i].id(j), parallel[i].id(j));
      ASSERT_EQ(serial[i].value(j), parallel[i].value(j));
    }
  }
}

}  // namespace
}  // namespace ie
