// Search-interface access: extraction through a keyword search API.
//
// When a collection can only be reached through a search interface (the
// paper's "more realistic" scenario), the pipeline retrieves an initial
// candidate pool with sample-learned queries, and after every model update
// turns the refreshed model's top features into new queries to grow the
// pool. This example shows the query lifecycle: the initial learned
// queries, the pool growth, and the recall achieved before falling back to
// unretrieved documents.
//
// Build & run:  ./build/examples/search_interface_extraction
#include <cstdio>

#include "corpus/generator.h"
#include "eval/experiment.h"
#include "extract/extraction_system.h"
#include "pipeline/pipeline.h"
#include "sampling/sampler.h"
#include "ranking/query_learning.h"

using namespace ie;

int main() {
  GeneratorOptions corpus_options;
  corpus_options.num_documents = 9000;
  corpus_options.seed = 33;
  Corpus corpus = GenerateCorpus(corpus_options);

  const RelationId relation = RelationId::kPersonCharge;
  auto system = TrainExtractionSystem(relation, corpus.shared_vocab());
  const ExtractionOutcomes outcomes =
      ExtractionOutcomes::Compute(*system, corpus);

  const auto& pool = corpus.splits().test;
  Featurizer featurizer(&corpus.vocab());
  const std::vector<SparseVector> word_features =
      FeaturizePool(corpus, featurizer);
  const CompactIndex index = BuildPoolIndex(corpus, pool);

  // Peek at what QXtract-style query learning discovers from a labeled
  // sample (the same mechanism the pipeline uses internally).
  {
    Rng rng(3);
    SrsSampler sampler;
    std::vector<LabeledExample> sample;
    for (DocId id : sampler.Sample(pool, 450, &rng)) {
      sample.push_back({word_features[id], outcomes.useful(id) ? 1 : -1});
    }
    std::printf("initial QXtract-style queries:");
    for (const std::string& q :
         LearnQueries(sample, corpus.vocab(), QueryMethod::kSvmWeights, 8)) {
      std::printf(" [%s]", q.c_str());
    }
    std::printf("\n");
  }

  SharedContext context;
  context.corpus = &corpus;
  context.pool = &pool;
  context.outcomes = &outcomes;
  context.relation = &GetRelation(relation);
  context.featurizer = &featurizer;
  context.word_features = &word_features;
  context.index = &index;

  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 11);
  config.sample_size = 450;
  config.access = AccessMode::kSearchInterface;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  const RunMetrics metrics = EvaluateRun(result);

  std::printf("\npool %zu docs, %zu useful; %zu model updates\n",
              pool.size(), result.pool_useful, result.NumUpdates());
  std::printf("recall through the search interface:\n");
  const size_t points = metrics.recall_curve.size() - 1;
  for (int pct = 10; pct <= 100; pct += 10) {
    std::printf("  %3d%% processed -> %5.1f%% recall\n", pct,
                100.0 * metrics.recall_curve[pct * points / 100]);
  }
  std::printf(
      "\nEvery update turned the model's top features into fresh keyword\n"
      "queries, pulling newly discovered subtopics (e.g. rare crime\n"
      "categories) into the candidate pool before the exhaustive fallback.\n");
  return 0;
}
