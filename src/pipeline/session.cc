#include "pipeline/session.h"

#include <algorithm>

#include "common/logging.h"
#include "ranking/learned_rankers.h"
#include "sampling/sampler.h"

namespace ie {

std::unique_ptr<DocumentRanker> MakeRanker(const PipelineConfig& config,
                                           uint64_t seed) {
  switch (config.ranker) {
    case RankerKind::kRandom:
      return std::make_unique<RandomRanker>(seed);
    case RankerKind::kPerfect:
      return std::make_unique<PerfectRanker>();
    case RankerKind::kBAggIE:
      return std::make_unique<BaggIeRanker>(config.bagg, seed);
    case RankerKind::kRSVMIE:
      return std::make_unique<RsvmIeRanker>(config.rsvm, seed);
  }
  return nullptr;
}

std::unique_ptr<UpdateDetector> MakeDetector(const PipelineConfig& config,
                                             size_t pool_size,
                                             uint64_t seed) {
  switch (config.update) {
    case UpdateKind::kNone:
      return std::make_unique<NeverUpdateDetector>();
    case UpdateKind::kWindF:
      return std::make_unique<WindFDetector>(
          config.windf_updates == 0
              ? 0
              : std::max<size_t>(1, pool_size / config.windf_updates));
    case UpdateKind::kFeatS:
      return std::make_unique<FeatSDetector>(config.feats);
    case UpdateKind::kTopK:
      return std::make_unique<TopKDetector>(config.topk);
    case UpdateKind::kModC:
      return std::make_unique<ModCDetector>(config.modc, seed);
  }
  return nullptr;
}

std::unique_ptr<Sampler> MakeSampler(const SharedContext& shared,
                                     SamplerKind kind) {
  if (kind == SamplerKind::kCQS) {
    IE_CHECK(shared.index != nullptr && shared.cqs_queries != nullptr);
    return std::make_unique<CqsSampler>(*shared.cqs_queries, shared.index,
                                        &shared.corpus->vocab());
  }
  return std::make_unique<SrsSampler>();
}

std::vector<DocId> DistinctPool(const std::vector<DocId>& pool) {
  std::vector<DocId> distinct;
  distinct.reserve(pool.size());
  std::vector<bool> seen(
      pool.empty() ? 0
                   : size_t{*std::max_element(pool.begin(), pool.end())} + 1);
  for (DocId id : pool) {
    if (seen[id]) continue;
    seen[id] = true;
    distinct.push_back(id);
  }
  return distinct;
}

}  // namespace ie
