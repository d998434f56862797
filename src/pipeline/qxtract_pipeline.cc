#include "pipeline/qxtract_pipeline.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "pipeline/session.h"
#include "ranking/query_learning.h"
#include "sampling/sampler.h"

namespace ie {

PipelineResult QXtractPipeline::Run(const SharedContext& context,
                                    const QXtractConfig& config) {
  IE_CHECK(context.corpus != nullptr && context.pool != nullptr &&
           context.outcomes != nullptr && context.relation != nullptr &&
           context.word_features != nullptr && context.index != nullptr);
  Rng rng(config.seed);
  const std::vector<DocId> pool = DistinctPool(*context.pool);

  PipelineResult result;
  result.pool_size = pool.size();
  result.pool_useful = context.outcomes->CountUseful(pool);

  const std::unordered_set<DocId> pool_set(pool.begin(), pool.end());
  std::unordered_set<DocId> processed;
  auto process_doc = [&](DocId id) {
    const bool useful = context.outcomes->useful(id);
    result.extraction_seconds += context.relation->extraction_cost_seconds;
    result.processing_order.push_back(id);
    result.processed_useful.push_back(useful ? 1 : 0);
    processed.insert(id);
  };

  // ---- Sample and label -------------------------------------------------
  std::unique_ptr<Sampler> sampler = MakeSampler(context, config.sampler);
  std::vector<LabeledExample> sample;
  for (DocId id :
       sampler->Sample(pool, std::min(config.sample_size, pool.size()), &rng)) {
    process_doc(id);
    sample.push_back(
        {(*context.word_features)[id],
         context.outcomes->useful(id) ? 1 : -1});
  }
  result.warmup_documents = result.processing_order.size();

  // ---- Learn queries (all three generation methods) and retrieve --------
  CpuTimer timer;
  const size_t depth = config.retrieved_per_query > 0
                           ? config.retrieved_per_query
                           : std::max<size_t>(50, pool.size() / 20);
  std::vector<DocId> retrieval_order;  // rank-of-retrieval, deduped
  std::unordered_set<DocId> retrieved;
  for (size_t m = 0; m < kNumQueryMethods; ++m) {
    for (const std::string& query :
         LearnQueries(sample, context.corpus->vocab(),
                      static_cast<QueryMethod>(m),
                      config.queries_per_method, rng.NextUint64())) {
      for (const SearchHit& hit : context.index->SearchText(
               query, context.corpus->vocab(), depth)) {
        if (pool_set.count(hit.doc) == 0) continue;
        if (processed.count(hit.doc) > 0) continue;
        if (retrieved.insert(hit.doc).second) {
          retrieval_order.push_back(hit.doc);
        }
      }
    }
  }
  result.ranking_cpu_seconds += timer.ElapsedSeconds();

  // ---- Process: retrieval order first, random remainder last ------------
  for (DocId id : retrieval_order) process_doc(id);
  std::vector<DocId> leftovers;
  for (DocId id : pool) {
    if (processed.count(id) == 0) leftovers.push_back(id);
  }
  rng.Shuffle(leftovers);
  for (DocId id : leftovers) process_doc(id);
  return result;
}

}  // namespace ie
