// Microbenchmarks (google-benchmark) for the ranking-side hot paths: the
// per-document online updates of RSVM-IE / BAgg-IE, bulk scoring (the
// re-rank inner loop), dense-weight materialization (Mod-C), and
// featurization. These are the operations whose cost the paper's "low
// overhead" claim rests on.
#include <benchmark/benchmark.h>

#include "harness.h"
#include "ranking/learned_rankers.h"

using namespace ie;
using namespace ie::bench;

namespace {

Harness* g_harness = nullptr;
std::vector<LabeledExample> g_stream;

void BuildStream() {
  const auto& pool = g_harness->test_pool();
  const auto& outcomes =
      g_harness->world().outcome(RelationId::kPersonCharge);
  SharedContext ctx = g_harness->Context(RelationId::kPersonCharge);
  for (size_t i = 0; i < 3000 && i < pool.size(); ++i) {
    const DocId id = pool[i];
    g_stream.push_back(
        {(*ctx.word_features)[id], outcomes.useful(id) ? 1 : -1});
  }
}

template <typename Ranker>
std::unique_ptr<Ranker> Trained() {
  auto ranker = std::make_unique<Ranker>();
  std::vector<LabeledExample> sample(g_stream.begin(),
                                     g_stream.begin() + 400);
  ranker->TrainInitial(sample);
  return ranker;
}

void BM_RsvmObserve(benchmark::State& state) {
  auto ranker = Trained<RsvmIeRanker>();
  size_t i = 0;
  for (auto _ : state) {
    const auto& ex = g_stream[i++ % g_stream.size()];
    ranker->Observe(ex.features, ex.label > 0);
  }
}
BENCHMARK(BM_RsvmObserve);

void BM_BaggObserve(benchmark::State& state) {
  auto ranker = Trained<BaggIeRanker>();
  size_t i = 0;
  for (auto _ : state) {
    const auto& ex = g_stream[i++ % g_stream.size()];
    ranker->Observe(ex.features, ex.label > 0);
  }
}
BENCHMARK(BM_BaggObserve);

void BM_RsvmScore(benchmark::State& state) {
  auto ranker = Trained<RsvmIeRanker>();
  ranker->SnapshotForScoring();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ranker->Score(g_stream[i++ % g_stream.size()].features));
  }
}
BENCHMARK(BM_RsvmScore);

void BM_BaggScore(benchmark::State& state) {
  auto ranker = Trained<BaggIeRanker>();
  ranker->SnapshotForScoring();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ranker->Score(g_stream[i++ % g_stream.size()].features));
  }
}
BENCHMARK(BM_BaggScore);

void BM_ModelWeightsMaterialization(benchmark::State& state) {
  auto ranker = Trained<RsvmIeRanker>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranker->ModelWeights());
  }
}
BENCHMARK(BM_ModelWeightsMaterialization);

void BM_Featurize(benchmark::State& state) {
  const Corpus& corpus = g_harness->world().corpus;
  Featurizer& featurizer = g_harness->featurizer();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        featurizer.Featurize(corpus.doc(static_cast<DocId>(
            i++ % corpus.size()))));
  }
}
BENCHMARK(BM_Featurize);

void BM_Bm25Search(benchmark::State& state) {
  SharedContext ctx = g_harness->Context(RelationId::kPersonCharge);
  const char* queries[] = {"fraud", "courtroom", "trial", "prosecutor"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.index->SearchText(
        queries[i++ % 4], g_harness->world().corpus.vocab(), 100));
  }
}
BENCHMARK(BM_Bm25Search);

}  // namespace

int main(int argc, char** argv) {
  Harness harness({RelationId::kPersonCharge},
                  std::min<size_t>(NumDocs(), 8000));
  g_harness = &harness;
  BuildStream();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
