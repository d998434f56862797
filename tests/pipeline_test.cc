#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "eval/experiment.h"
#include "pipeline/factcrawl_pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

PipelineConfig BaseConfig(RankerKind ranker, UpdateKind update,
                          uint64_t seed) {
  PipelineConfig config = PipelineConfig::Defaults(
      ranker, SamplerKind::kSRS, update, seed);
  config.sample_size = 120;
  return config;
}

// Invariants every full-access run must satisfy.
void CheckRunInvariants(const PipelineResult& result,
                        const SharedContext& context) {
  EXPECT_EQ(result.processing_order.size(), context.pool->size());
  EXPECT_EQ(result.processed_useful.size(), result.processing_order.size());

  // Every pool document processed exactly once.
  const std::set<DocId> pool_set(context.pool->begin(),
                                 context.pool->end());
  std::set<DocId> processed;
  for (DocId id : result.processing_order) {
    EXPECT_TRUE(pool_set.count(id) > 0);
    EXPECT_TRUE(processed.insert(id).second) << "processed twice: " << id;
  }

  // Verdicts match the cached outcomes.
  for (size_t i = 0; i < result.processing_order.size(); ++i) {
    EXPECT_EQ(result.processed_useful[i] != 0,
              context.outcomes->useful(result.processing_order[i]));
  }

  // Simulated cost: one charge per processed document.
  EXPECT_NEAR(result.extraction_seconds,
              context.relation->extraction_cost_seconds *
                  static_cast<double>(result.processing_order.size()),
              1e-6);

  // Update positions are strictly increasing and within range.
  for (size_t i = 1; i < result.update_positions.size(); ++i) {
    EXPECT_GT(result.update_positions[i], result.update_positions[i - 1]);
  }
  if (!result.update_positions.empty()) {
    EXPECT_LE(result.update_positions.back(),
              result.processing_order.size());
  }

  EXPECT_EQ(result.pool_useful,
            context.outcomes->CountUseful(*context.pool));
}

class PipelineRankerTest : public ::testing::TestWithParam<RankerKind> {};

TEST_P(PipelineRankerTest, FullAccessRunInvariants) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(GetParam(), UpdateKind::kNone, 11));
  CheckRunInvariants(result, context);
}

INSTANTIATE_TEST_SUITE_P(AllRankers, PipelineRankerTest,
                         ::testing::Values(RankerKind::kRandom,
                                           RankerKind::kPerfect,
                                           RankerKind::kBAggIE,
                                           RankerKind::kRSVMIE));

class PipelineDetectorTest : public ::testing::TestWithParam<UpdateKind> {};

TEST_P(PipelineDetectorTest, AdaptiveRunInvariants) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, GetParam(), 13));
  CheckRunInvariants(result, context);
  if (GetParam() == UpdateKind::kWindF) {
    EXPECT_GT(result.NumUpdates(), 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, PipelineDetectorTest,
                         ::testing::Values(UpdateKind::kWindF,
                                           UpdateKind::kFeatS,
                                           UpdateKind::kTopK,
                                           UpdateKind::kModC));

TEST(PipelineTest, DeterministicForSeed) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 17);
  const PipelineResult a = AdaptiveExtractionPipeline::Run(context, config);
  const PipelineResult b = AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_EQ(a.processing_order, b.processing_order);
  EXPECT_EQ(a.update_positions, b.update_positions);
}

TEST(PipelineTest, SeedChangesSampleOrder) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult a = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRandom, UpdateKind::kNone, 1));
  const PipelineResult b = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRandom, UpdateKind::kNone, 2));
  EXPECT_NE(a.processing_order, b.processing_order);
}

TEST(PipelineTest, PerfectBeatsRandomWhichIsNearChance) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCareer);
  const RunMetrics perfect = EvaluateRun(AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kPerfect, UpdateKind::kNone, 19)));
  const RunMetrics random = EvaluateRun(AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRandom, UpdateKind::kNone, 19)));
  EXPECT_GT(perfect.auc, 0.99);
  EXPECT_NEAR(random.auc, 0.5, 0.06);
}

TEST(PipelineTest, LearnedRankerBeatsRandom) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const RunMetrics learned = EvaluateRun(AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kNone, 23)));
  EXPECT_GT(learned.auc, 0.7);
}

TEST(PipelineTest, AdaptiveAtLeastMatchesBase) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  double base_auc = 0.0, adaptive_auc = 0.0;
  for (uint64_t seed : {29, 31, 37}) {
    base_auc += EvaluateRun(AdaptiveExtractionPipeline::Run(
                                context, BaseConfig(RankerKind::kRSVMIE,
                                                    UpdateKind::kNone, seed)))
                    .auc;
    adaptive_auc +=
        EvaluateRun(AdaptiveExtractionPipeline::Run(
                        context, BaseConfig(RankerKind::kRSVMIE,
                                            UpdateKind::kModC, seed)))
            .auc;
  }
  EXPECT_GE(adaptive_auc, base_auc - 0.05);
}

TEST(PipelineTest, ModelUpdatesActuallyFire) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 41));
  EXPECT_GT(result.NumUpdates(), 0u);
  EXPECT_EQ(result.features_added_per_update.size(), result.NumUpdates());
  EXPECT_GT(result.final_model_features, 10u);
}

TEST(PipelineTest, CqsSamplingRuns) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  const std::vector<std::string> queries = {"courtroom", "trial", "fraud",
                                            "prosecutor"};
  context.cqs_queries = &queries;
  PipelineConfig config = BaseConfig(RankerKind::kRSVMIE,
                                     UpdateKind::kNone, 43);
  config.sampler = SamplerKind::kCQS;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
}

TEST(PipelineTest, SearchInterfaceAccessCoversPool) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 47);
  config.access = AccessMode::kSearchInterface;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
}

/// Delegates to another index and logs every search as (terms, depth).
class CountingIndex : public SearchIndex {
 public:
  using Log = std::vector<std::pair<std::vector<TokenId>, size_t>>;

  CountingIndex(const SearchIndex& base, Log* log) : base_(base), log_(log) {}

  size_t NumDocs() const override { return base_.NumDocs(); }
  size_t NumPostings() const override { return base_.NumPostings(); }
  size_t DocFreq(TokenId term) const override { return base_.DocFreq(term); }
  size_t PostingsBytes() const override { return base_.PostingsBytes(); }
  std::vector<SearchHit> Search(const std::vector<TokenId>& terms,
                                size_t k) const override {
    log_->emplace_back(terms, k);
    return base_.Search(terms, k);
  }

 private:
  const SearchIndex& base_;
  Log* log_;
};

// Each refresh query is searched once per run: a feature that stays in the
// model's top features across updates is not queried again, and the run's
// counters report exactly the searches the index served.
TEST(PipelineTest, RefreshQueriesAreSearchedOncePerRun) {
  CountingIndex::Log log;
  const CountingIndex index(test::SharedIndex(), &log);
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCareer);
  context.index = &index;
  PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 1);
  config.access = AccessMode::kSearchInterface;
  // Refresh searches are told apart from the initial ones by their depth.
  ASSERT_NE(config.search_refresh_depth, config.search_initial_depth);
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
  ASSERT_GT(result.NumUpdates(), 1u);

  std::set<std::vector<TokenId>> refresh_queries;
  size_t refresh_searches = 0;
  for (const auto& [terms, depth] : log) {
    if (depth != config.search_refresh_depth) continue;
    ++refresh_searches;
    EXPECT_TRUE(refresh_queries.insert(terms).second)
        << "refresh query searched twice";
  }
  EXPECT_GT(refresh_searches, 0u);
  EXPECT_EQ(result.metrics.CounterOr("pipeline.refresh_queries"),
            refresh_searches);
  EXPECT_GT(result.metrics.CounterOr("pipeline.refresh_queries_repeated"),
            0u);
}

TEST(PipelineTest, OverheadAccountingNonNegative) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kTopK, 53));
  EXPECT_GT(result.ranking_cpu_seconds, 0.0);
  EXPECT_GT(result.detector_cpu_seconds, 0.0);
  EXPECT_GT(result.TotalSeconds(), result.extraction_seconds);
}

// windf_updates = 0 means Wind-F never fires (the interval computation
// must not divide by it), and the run still processes the whole pool.
TEST(PipelineTest, WindFZeroUpdatesNeverFires) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kWindF, 5);
  config.windf_updates = 0;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
  EXPECT_EQ(result.NumUpdates(), 0u);
}

// A pool that names documents twice is its distinct documents to every
// loop: each is counted once in pool_size and the recall denominator, and
// processed (and charged) once.
TEST(PipelineTest, DuplicatedPoolIdsCountAndProcessOnce) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  const std::vector<DocId>& distinct = *context.pool;
  // Repeat the first 10 useful and the first 5 useless documents.
  std::vector<DocId> pool = distinct;
  size_t useful = 0, useless = 0;
  for (DocId id : distinct) {
    if (context.outcomes->useful(id) ? useful++ < 10 : useless++ < 5) {
      pool.push_back(id);
    }
  }
  ASSERT_EQ(pool.size(), distinct.size() + 15);
  context.pool = &pool;

  const std::multiset<DocId> expected(distinct.begin(), distinct.end());
  auto check = [&](const PipelineResult& result) {
    EXPECT_EQ(result.pool_size, distinct.size());
    EXPECT_EQ(result.pool_useful, context.outcomes->CountUseful(distinct));
    EXPECT_EQ(std::multiset<DocId>(result.processing_order.begin(),
                                   result.processing_order.end()),
              expected);
    EXPECT_NEAR(result.extraction_seconds,
                context.relation->extraction_cost_seconds *
                    static_cast<double>(distinct.size()),
                1e-6);
  };
  for (const AccessMode access :
       {AccessMode::kFullAccess, AccessMode::kSearchInterface}) {
    SCOPED_TRACE(AccessModeName(access));
    PipelineConfig config =
        BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 5);
    config.access = access;
    check(AdaptiveExtractionPipeline::Run(context, config));
  }
  {
    SCOPED_TRACE("FactCrawl");
    FactCrawlConfig config;
    config.sample_size = 120;
    config.seed = 5;
    check(FactCrawlPipeline::Run(context, config));
  }
}

// PipelineConfig::Defaults must give the two learned rankers distinct
// Mod-C trigger angles (the paper calibrates 30 deg for BAgg-IE vs 5 deg
// for RSVM-IE; a refactor once collapsed both arms of the conditional to
// the same constant).
TEST(RerankConfigTest, ModCAlphaDefaultsDifferPerRanker) {
  const PipelineConfig bagg = PipelineConfig::Defaults(
      RankerKind::kBAggIE, SamplerKind::kSRS, UpdateKind::kModC, 1);
  const PipelineConfig rsvm = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 1);
  EXPECT_NE(bagg.modc.alpha_degrees, rsvm.modc.alpha_degrees);
  // The committee swings through wider angles per absorbed batch, so its
  // trigger must sit above the RSVM-IE one (paper Section 4.2 ordering).
  EXPECT_GT(bagg.modc.alpha_degrees, rsvm.modc.alpha_degrees);
}

// Non-adaptive runs must not buffer processed examples at all — the buffer
// only exists to hand absorbed documents to the detector at the next
// update, and kNone never updates. Guards against an unbounded
// accumulation of the whole pool's feature vectors.
TEST(RerankBufferTest, NonAdaptiveRunKeepsNoExampleBuffer) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kNone, 11));
  EXPECT_EQ(result.peak_buffer_examples, 0u);
  EXPECT_EQ(result.NumUpdates(), 0u);
}

TEST(RerankBufferTest, AdaptiveRunBuffersBetweenUpdates) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kWindF, 11);
  config.windf_updates = 150;
  const PipelineResult result = AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_GT(result.NumUpdates(), 0u);
  // The buffer drains at every update, so its peak is bounded by the
  // largest between-updates interval, not the pool size.
  EXPECT_GT(result.peak_buffer_examples, 0u);
  EXPECT_LT(result.peak_buffer_examples, context.pool->size() / 2);
}

// ---- FactCrawl pipelines ---------------------------------------------------

TEST(FactCrawlPipelineTest, FcRunInvariants) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  const std::vector<std::string> queries = {"courtroom", "trial", "fraud",
                                            "prosecutor"};
  context.cqs_queries = &queries;
  for (const SamplerKind sampler : {SamplerKind::kSRS, SamplerKind::kCQS}) {
    SCOPED_TRACE(SamplerKindName(sampler));
    FactCrawlConfig config;
    config.sampler = sampler;
    config.sample_size = 120;
    config.seed = 59;
    const PipelineResult result = FactCrawlPipeline::Run(context, config);
    CheckRunInvariants(result, context);
    EXPECT_EQ(result.NumUpdates(), 0u);  // FC never re-ranks
    EXPECT_GE(result.warmup_documents, 120u);  // sample + query evaluation
  }
}

TEST(FactCrawlPipelineTest, AdaptiveFcReranks) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.adaptive = true;
  config.sample_size = 120;
  config.rerank_interval = 150;
  config.seed = 61;
  const PipelineResult result = FactCrawlPipeline::Run(context, config);
  CheckRunInvariants(result, context);
  EXPECT_GT(result.NumUpdates(), 0u);
}

// A-FC with rerank_interval = 0 never re-ranks, and with
// refresh_every_reranks = 0 never refreshes its queries; neither cadence
// may be divided by. Each run equals one whose cadence is never reached.
TEST(FactCrawlPipelineTest, AdaptiveFcZeroRerankIntervalNeverReranks) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.adaptive = true;
  config.sample_size = 120;
  config.seed = 61;
  config.rerank_interval = 0;
  const PipelineResult never = FactCrawlPipeline::Run(context, config);
  CheckRunInvariants(never, context);
  EXPECT_EQ(never.NumUpdates(), 0u);
  config.rerank_interval = std::numeric_limits<size_t>::max();
  EXPECT_EQ(never.processing_order,
            FactCrawlPipeline::Run(context, config).processing_order);
}

TEST(FactCrawlPipelineTest, AdaptiveFcZeroRefreshCadenceNeverRefreshes) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.adaptive = true;
  config.sample_size = 120;
  config.rerank_interval = 50;
  config.seed = 61;
  config.refresh_every_reranks = 0;
  const PipelineResult never = FactCrawlPipeline::Run(context, config);
  CheckRunInvariants(never, context);
  EXPECT_GT(never.NumUpdates(), 0u);  // it still re-ranks
  config.refresh_every_reranks = std::numeric_limits<size_t>::max();
  EXPECT_EQ(never.processing_order,
            FactCrawlPipeline::Run(context, config).processing_order);
  // Not vacuous: refreshing the queries does move the order.
  config.refresh_every_reranks = 1;
  EXPECT_NE(never.processing_order,
            FactCrawlPipeline::Run(context, config).processing_order);
}

TEST(FactCrawlPipelineTest, FcBeatsRandomOnTopicalRelation) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.sample_size = 120;
  config.seed = 67;
  // The shared test pool is small; give FC paper-like absolute retrieval
  // depth instead of the pool-proportional auto depth.
  config.factcrawl.retrieved_per_query = 200;
  const RunMetrics fc = EvaluateRun(FactCrawlPipeline::Run(context, config));
  EXPECT_GT(fc.auc, 0.6);
}

}  // namespace
}  // namespace ie
