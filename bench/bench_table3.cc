// Table 3 — average CPU time to perform update detection per processed
// document, for each technique (paper: Wind-F 0.01 ms, Feat-S 5.72 ms,
// Top-K 1.89 ms, Mod-C 0.32 ms). Measured two ways: (a) end-to-end inside
// the pipeline (thread CPU time of detector->Observe, averaged over the
// run), and (b) a google-benchmark microbench of Observe() on a realistic
// document stream.
//
// Paper shape: Wind-F << Mod-C < Top-K < Feat-S. Not expected here: Top-K
// and Feat-S compute the same statistics incrementally (DESIGN.md §17) and
// Mod-C never materializes a model (§18), so the measured shape is
// Wind-F << Feat-S < Mod-C < Top-K. EXPERIMENTS.md records the deviation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "harness.h"
#include "update/update_detector.h"

using namespace ie;
using namespace ie::bench;

namespace {

Harness* g_harness = nullptr;
std::vector<LabeledExample> g_stream;  // featurized doc stream
std::unique_ptr<DocumentRanker> g_ranker;

void BuildStream() {
  const RelationId relation = RelationId::kElectionWinner;
  const auto& pool = g_harness->test_pool();
  const auto& outcomes = g_harness->world().outcome(relation);
  SharedContext ctx = g_harness->Context(relation);
  // The stream mirrors what the pipeline feeds detectors: word features
  // with the extractor's usefulness verdicts.
  std::vector<LabeledExample> sample;
  for (size_t i = 0; i < 2000 && i < pool.size(); ++i) {
    const DocId id = pool[i];
    g_stream.push_back(
        {(*ctx.word_features)[id], outcomes.useful(id) ? 1 : -1});
    if (i < 400) sample.push_back(g_stream.back());
  }
  g_ranker = std::make_unique<RsvmIeRanker>();
  g_ranker->TrainInitial(sample);
}

std::unique_ptr<UpdateDetector> MakeDetector(const std::string& which) {
  if (which == "windf") return std::make_unique<WindFDetector>(1u << 30);
  if (which == "feats") return std::make_unique<FeatSDetector>();
  if (which == "topk") return std::make_unique<TopKDetector>();
  return std::make_unique<ModCDetector>();
}

void BM_UpdateDetector(benchmark::State& state, const std::string& which) {
  auto detector = MakeDetector(which);
  detector->OnModelUpdated(*g_ranker, g_stream);
  size_t i = 0;
  for (auto _ : state) {
    const LabeledExample& ex = g_stream[i++ % g_stream.size()];
    benchmark::DoNotOptimize(
        detector->Observe(ex.features, ex.label > 0, *g_ranker));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Harness harness({RelationId::kElectionWinner});
  g_harness = &harness;
  BuildStream();

  // (a) end-to-end per-document detector CPU time inside full runs.
  std::printf("\nTable 3: update-detection CPU time per document\n");
  std::printf("%-10s %14s\n", "method", "pipeline ms/doc");
  for (const auto& [update, label] :
       std::vector<std::pair<UpdateKind, const char*>>{
           {UpdateKind::kWindF, "Wind-F"},
           {UpdateKind::kFeatS, "Feat-S"},
           {UpdateKind::kTopK, "Top-K"},
           {UpdateKind::kModC, "Mod-C"}}) {
    PipelineConfig config = PipelineConfig::Defaults(
        RankerKind::kRSVMIE, SamplerKind::kSRS, update, 12345);
    config.sample_size = harness.SampleSize();
    const PipelineResult result = AdaptiveExtractionPipeline::Run(
        harness.Context(RelationId::kElectionWinner), config);
    std::printf("%-10s %14.3f\n", label,
                1e3 * result.detector_cpu_seconds /
                    static_cast<double>(result.processing_order.size()));
  }

  // (b) microbenchmarks of Observe().
  benchmark::RegisterBenchmark("Observe/Wind-F", BM_UpdateDetector, "windf");
  benchmark::RegisterBenchmark("Observe/Feat-S", BM_UpdateDetector, "feats");
  benchmark::RegisterBenchmark("Observe/Top-K", BM_UpdateDetector, "topk");
  benchmark::RegisterBenchmark("Observe/Mod-C", BM_UpdateDetector, "modc");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
