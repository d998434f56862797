// FC / A-FC baseline pipelines, producing the same PipelineResult as the
// adaptive learning-to-rank pipeline so all strategies share the
// evaluation path. FC scores the pool once from sample-derived queries;
// A-FC additionally folds processed-document verdicts back into the query
// qualities, learns new queries, and re-ranks periodically.
#pragma once

#include "pipeline/pipeline.h"
#include "ranking/factcrawl.h"

namespace ie {

struct FactCrawlConfig {
  bool adaptive = false;  // false = FC, true = A-FC
  SamplerKind sampler = SamplerKind::kSRS;
  size_t sample_size = 200;
  uint64_t seed = 1;
  FactCrawlOptions factcrawl = {};
  /// A-FC: re-rank cadence in processed documents. The paper re-ranks after
  /// every document; a small interval keeps bench runs tractable while
  /// preserving the behaviour (overhead is measured either way). 0 never
  /// re-ranks.
  size_t rerank_interval = 100;
  /// A-FC: query refresh happens on every k-th re-rank; 0 never refreshes.
  size_t refresh_every_reranks = 5;
};

class FactCrawlPipeline {
 public:
  static PipelineResult Run(const SharedContext& context,
                            const FactCrawlConfig& config);
};

}  // namespace ie
