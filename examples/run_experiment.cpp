// Configurable experiment runner: reproduce any pipeline configuration
// from the command line, including the paper's future-work recall
// estimation and tuple-diversity characterization.
//
// Usage:
//   run_experiment [relation=PH] [ranker=rsvm|bagg|random|perfect]
//                  [sampler=srs] [update=none|windf|feats|topk|modc]
//                  [docs=8000] [seeds=2] [access=full|search]
// e.g.
//   ./build/examples/run_experiment relation=ND ranker=rsvm update=modc
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "corpus/generator.h"
#include "eval/diversity.h"
#include "eval/experiment.h"
#include "eval/recall_estimator.h"
#include "extract/extraction_system.h"
#include "pipeline/pipeline.h"

using namespace ie;

namespace {

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    if (eq == nullptr) continue;
    args[std::string(argv[i], static_cast<size_t>(eq - argv[i]))] =
        std::string(eq + 1);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  auto get = [&](const char* key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };

  const RelationSpec* spec = FindRelationByCode(get("relation", "PH"));
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "unknown relation code (use PO DO PC ND MD PH EW)\n");
    return 1;
  }
  const std::string ranker_name = get("ranker", "rsvm");
  const std::string update_name = get("update", "modc");
  const size_t num_docs = std::stoul(get("docs", "8000"));
  const size_t seeds = std::stoul(get("seeds", "2"));

  const RankerKind ranker = ranker_name == "bagg"      ? RankerKind::kBAggIE
                            : ranker_name == "random"  ? RankerKind::kRandom
                            : ranker_name == "perfect" ? RankerKind::kPerfect
                                                       : RankerKind::kRSVMIE;
  const UpdateKind update = update_name == "none"    ? UpdateKind::kNone
                            : update_name == "windf" ? UpdateKind::kWindF
                            : update_name == "feats" ? UpdateKind::kFeatS
                            : update_name == "topk"  ? UpdateKind::kTopK
                                                     : UpdateKind::kModC;

  std::fprintf(stderr, "building world (%zu docs)...\n", num_docs);
  GeneratorOptions corpus_options;
  corpus_options.num_documents = num_docs;
  corpus_options.seed = 42;
  Corpus corpus = GenerateCorpus(corpus_options);
  auto system = TrainExtractionSystem(spec->id, corpus.shared_vocab());
  const ExtractionOutcomes outcomes =
      ExtractionOutcomes::Compute(*system, corpus);
  const auto& pool = corpus.splits().test;
  Featurizer featurizer(&corpus.vocab());
  const std::vector<SparseVector> word_features =
      FeaturizePool(corpus, featurizer);
  const CompactIndex index = BuildPoolIndex(corpus, pool);

  SharedContext context;
  context.corpus = &corpus;
  context.pool = &pool;
  context.outcomes = &outcomes;
  context.relation = spec;
  context.featurizer = &featurizer;
  context.word_features = &word_features;
  context.index = &index;

  PipelineResult last_result;
  const AggregateMetrics agg = RunExperiment(
      spec->code + " " + ranker_name + "+" + update_name, seeds,
      [&](size_t run) {
        PipelineConfig config = PipelineConfig::Defaults(
            ranker, SamplerKind::kSRS, update, 1000 + run);
        config.sample_size = std::max<size_t>(150, pool.size() * 6 / 100);
        if (get("access", "full") == "search") {
          config.access = AccessMode::kSearchInterface;
        }
        last_result = AdaptiveExtractionPipeline::Run(context, config);
        return last_result;
      });

  std::printf("\n%s — %s, update=%s, %zu docs, %zu seeds\n",
              spec->name.c_str(), ranker_name.c_str(), update_name.c_str(),
              num_docs, seeds);
  std::printf("%-28s", "processed %:");
  for (int p = 10; p <= 100; p += 10) std::printf(" %6d", p);
  std::printf("\n");
  PrintCurveWithUpdates(agg);
  PrintApAucRow(agg);

  // Future-work extensions on the last run: recall estimate at the point
  // where 30% of the pool was processed, plus tuple-diversity index.
  const size_t cut = last_result.processing_order.size() * 3 / 10;
  std::vector<double> processed_scores, remaining_scores;
  std::vector<bool> processed_labels;
  for (size_t i = 0; i < last_result.processing_order.size(); ++i) {
    // Proxy score: position rank (descending), since per-doc model scores
    // at processing time are internal; calibration only needs monotone
    // scores.
    const double score =
        -static_cast<double>(i) /
        static_cast<double>(last_result.processing_order.size());
    if (i < cut) {
      processed_scores.push_back(score);
      processed_labels.push_back(last_result.processed_useful[i] != 0);
    } else {
      remaining_scores.push_back(score);
    }
  }
  const RecallEstimate estimate = EstimateRecall(
      processed_scores, processed_labels, remaining_scores);
  const double true_recall =
      last_result.pool_useful > 0
          ? static_cast<double>(estimate.found) /
                static_cast<double>(last_result.pool_useful)
          : 0.0;
  std::printf(
      "\nrecall estimation after 30%% processed: estimated %.1f%% "
      "(true %.1f%%)\n",
      100.0 * estimate.estimated_recall, 100.0 * true_recall);
  std::printf("early tuple-diversity index: %.3f (1.0 = all distinct "
              "tuples found immediately)\n",
              EarlyDiversityIndex(last_result.processing_order, outcomes));
  return 0;
}
