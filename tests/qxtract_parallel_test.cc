#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/parallel.h"
#include "eval/experiment.h"
#include "pipeline/qxtract_pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

// ---- ParallelFor -----------------------------------------------------------

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SerialFallback) {
  std::vector<int> hits(50, 0);
  ParallelFor(50, 1, [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(ParallelForTest, SmallNDegeneratesToSerial) {
  std::vector<int> hits(3, 0);
  ParallelFor(3, 8, [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(0, 4, [](size_t) { FAIL(); });
}

// ---- QXtract baseline -------------------------------------------------------

TEST(QXtractPipelineTest, RunInvariants) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  QXtractConfig config;
  config.sample_size = 120;
  config.seed = 73;
  const PipelineResult result = QXtractPipeline::Run(context, config);
  EXPECT_EQ(result.processing_order.size(), context.pool->size());
  std::set<DocId> processed(result.processing_order.begin(),
                            result.processing_order.end());
  EXPECT_EQ(processed.size(), context.pool->size());
  EXPECT_EQ(result.pool_useful,
            context.outcomes->CountUseful(*context.pool));
}

TEST(QXtractPipelineTest, BeatsRandomOnTopicalRelation) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  double qx = 0.0;
  for (uint64_t seed : {79, 83, 89}) {
    QXtractConfig config;
    config.sample_size = 120;
    config.seed = seed;
    config.retrieved_per_query = 150;
    qx += EvaluateRun(QXtractPipeline::Run(context, config)).auc / 3.0;
  }
  EXPECT_GT(qx, 0.55);
}

TEST(QXtractPipelineTest, RetrievalOrderNotUsefulnessOrder) {
  // QXtract processes by retrieval rank, so it should trail the adaptive
  // learned ranker — the paper's reason to move beyond it.
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  QXtractConfig qx_config;
  qx_config.sample_size = 120;
  qx_config.seed = 97;
  qx_config.retrieved_per_query = 150;
  const double qx =
      EvaluateRun(QXtractPipeline::Run(context, qx_config)).auc;

  PipelineConfig rsvm_config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 97);
  rsvm_config.sample_size = 120;
  const double rsvm =
      EvaluateRun(AdaptiveExtractionPipeline::Run(context, rsvm_config))
          .auc;
  EXPECT_GT(rsvm, qx);
}

}  // namespace
}  // namespace ie
