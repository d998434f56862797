#include "pipeline/factcrawl_pipeline.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "pipeline/session.h"
#include "sampling/sampler.h"

namespace ie {

namespace {

/// Cap on labeled documents kept for A-FC's query refreshes.
constexpr size_t kMaxLabeledKept = 4000;

}  // namespace

PipelineResult FactCrawlPipeline::Run(const SharedContext& context,
                                      const FactCrawlConfig& config) {
  IE_CHECK(context.corpus != nullptr && context.pool != nullptr &&
           context.outcomes != nullptr && context.relation != nullptr &&
           context.featurizer != nullptr &&
           context.word_features != nullptr && context.index != nullptr);
  Rng rng(config.seed);
  const std::vector<DocId> pool = DistinctPool(*context.pool);

  PipelineResult result;
  result.pool_size = pool.size();
  result.pool_useful = context.outcomes->CountUseful(pool);

  std::unordered_set<DocId> processed;
  std::vector<LabeledExample> labeled;
  auto process_doc = [&](DocId id) -> bool {
    const bool useful = context.outcomes->useful(id);
    result.extraction_seconds += context.relation->extraction_cost_seconds;
    result.processing_order.push_back(id);
    result.processed_useful.push_back(useful ? 1 : 0);
    processed.insert(id);
    if (labeled.size() < kMaxLabeledKept) {
      labeled.push_back(
          {(*context.word_features)[id], useful ? 1 : -1});
    }
    return useful;
  };

  // ---- Sample + query learning + one-time query evaluation -------------
  std::unique_ptr<Sampler> sampler = MakeSampler(context, config.sampler);
  for (DocId id :
       sampler->Sample(pool, std::min(config.sample_size, pool.size()), &rng)) {
    process_doc(id);
  }

  FactCrawlOptions fc_options = config.factcrawl;
  if (fc_options.retrieved_per_query == 0) {
    fc_options.retrieved_per_query =
        std::max<size_t>(30, pool.size() / 100);
  }
  FactCrawl factcrawl(fc_options, context.index, &context.corpus->vocab());
  CpuTimer setup_timer;
  factcrawl.LearnInitialQueries(labeled, rng.NextUint64());
  result.ranking_cpu_seconds += setup_timer.ElapsedSeconds();

  // Query-quality estimation runs the extractor over a few documents per
  // query: real extraction effort, charged and recorded.
  const std::vector<DocId> eval_docs = factcrawl.EvaluateQueries(
      [&](DocId id) { return context.outcomes->useful(id); });
  for (DocId id : eval_docs) {
    if (processed.count(id) == 0) process_doc(id);
  }
  result.warmup_documents = result.processing_order.size();

  {
    CpuTimer timer;
    factcrawl.RecomputeScores();
    result.ranking_cpu_seconds += timer.ElapsedSeconds();
  }

  std::vector<DocId> remaining;
  for (DocId id : pool) {
    if (processed.count(id) == 0) remaining.push_back(id);
  }
  rng.Shuffle(remaining);

  auto rerank = [&]() {
    CpuTimer timer;
    std::stable_sort(remaining.begin(), remaining.end(),
                     [&](DocId a, DocId b) {
                       return factcrawl.Score(a) > factcrawl.Score(b);
                     });
    result.ranking_cpu_seconds += timer.ElapsedSeconds();
  };
  rerank();

  // ---- Extraction loop -------------------------------------------------
  size_t cursor = 0;
  size_t reranks = 0;
  while (cursor < remaining.size()) {
    const DocId id = remaining[cursor++];
    const bool useful = process_doc(id);

    if (!config.adaptive) continue;
    {
      CpuTimer timer;
      factcrawl.ObserveProcessed(id, useful);
      result.ranking_cpu_seconds += timer.ElapsedSeconds();
    }
    if (config.rerank_interval > 0 && cursor % config.rerank_interval == 0 &&
        cursor < remaining.size()) {
      ++reranks;
      CpuTimer timer;
      if (config.refresh_every_reranks > 0 &&
          reranks % config.refresh_every_reranks == 0) {
        factcrawl.RefreshQueries(labeled, rng.NextUint64());
      }
      factcrawl.RecomputeScores();
      result.ranking_cpu_seconds += timer.ElapsedSeconds();
      remaining.erase(remaining.begin(),
                      remaining.begin() + static_cast<long>(cursor));
      cursor = 0;
      rerank();
      result.update_positions.push_back(result.processing_order.size());
    }
  }

  return result;
}

}  // namespace ie
