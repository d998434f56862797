#include "replay.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "learn/feature_selection.h"
#include "pipeline/rerank_engine.h"
#include "pipeline/session.h"
#include "ranking/query_learning.h"
#include "sampling/sampler.h"
#include "update/update_detector.h"

namespace perfbench {
namespace {

using ie::DocId;
using ie::LabeledExample;

// Non-zero support of the model (Run()'s per-update feature-churn
// bookkeeping, replayed for its cost).
std::unordered_set<uint32_t> WeightSupport(const ie::WeightVector& w) {
  std::unordered_set<uint32_t> support;
  w.ForEachNonZero([&support](uint32_t id, double value) {
    if (std::abs(value) > 1e-9) support.insert(id);
  });
  return support;
}

}  // namespace

ReplayResult ReplayRun(const ie::SharedContext& context,
                       const ie::PipelineConfig& config, SpanRecorder* spans) {
  ReplayResult out;
  out.start_ns = NowNs();
  const std::vector<DocId>& pool = *context.pool;
  ie::Rng rng(config.seed);

  for (DocId id : pool) {
    for (const std::string& value : context.outcomes->AttributeValues(id)) {
      context.featurizer->AttributeFeatureId(value);
    }
  }

  auto extract_example = [&context, spans](DocId id) -> LabeledExample {
    bool useful;
    std::vector<std::string> attrs;
    {
      SpanRecorder::Scope span(spans, Layer::kProcess);
      if (context.extraction_system != nullptr) {
        const std::vector<ie::ExtractedTuple> tuples =
            context.extraction_system->Process(context.corpus->doc(id));
        useful = !tuples.empty();
        if (useful) attrs = ie::TupleAttributeValues(tuples);
      } else {
        useful = context.outcomes->useful(id);
        if (useful) attrs = context.outcomes->AttributeValues(id);
      }
    }
    SpanRecorder::Scope span(spans, Layer::kFeaturize);
    if (useful) {
      return {context.featurizer->Featurize(context.corpus->doc(id), attrs),
              1};
    }
    return {(*context.word_features)[id], -1};
  };
  ie::ExtractExecutorOptions executor_options;
  executor_options.threads = config.extract_threads;
  executor_options.prefetch_window = config.prefetch_window;
  ie::ExtractExecutor executor(extract_example, executor_options);
  const size_t window = executor.speculative()
                            ? std::max<size_t>(1, config.prefetch_window)
                            : 1;

  std::unordered_set<DocId> processed;
  int64_t pause_start_ns = -1;
  auto consume = [&](DocId id) -> LabeledExample {
    if (pause_start_ns >= 0) {
      out.update_pause_ms.push_back(
          static_cast<double>(NowNs() - pause_start_ns) / 1e6);
      pause_start_ns = -1;
    }
    LabeledExample example;
    {
      SpanRecorder::Scope span(spans, Layer::kTake);
      example = executor.Take(id);
    }
    out.processing_order.push_back(id);
    out.processed_useful.push_back(example.label > 0 ? 1 : 0);
    processed.insert(id);
    return example;
  };
  auto consume_in_order = [&](const std::vector<DocId>& ids,
                              std::vector<LabeledExample>* examples) {
    size_t next_prefetch = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (; next_prefetch < ids.size() && next_prefetch < i + window;
           ++next_prefetch) {
        executor.Prefetch(ids[next_prefetch]);
      }
      LabeledExample example = consume(ids[i]);
      if (examples != nullptr) examples->push_back(std::move(example));
    }
  };

  // ---- Initial sample and warmup.
  std::unique_ptr<ie::Sampler> sampler =
      ie::MakeSampler(context, config.sampler);
  std::vector<DocId> sample;
  {
    SpanRecorder::Scope span(spans, Layer::kSample);
    sample = sampler->Sample(pool, std::min(config.sample_size, pool.size()),
                             &rng);
  }
  std::vector<LabeledExample> sample_examples;
  sample_examples.reserve(sample.size());
  consume_in_order(sample, &sample_examples);

  // ---- Initial model.
  std::unique_ptr<ie::DocumentRanker> ranker =
      ie::MakeRanker(config, rng.NextUint64());
  {
    SpanRecorder::Scope span(spans, Layer::kTrainInitial);
    ranker->TrainInitial(sample_examples);
  }
  std::unique_ptr<ie::UpdateDetector> detector =
      ie::MakeDetector(config, pool.size(), rng.NextUint64());
  {
    SpanRecorder::Scope span(spans, Layer::kRefresh);
    detector->OnModelUpdated(*ranker, sample_examples);
    ++out.refreshes;
  }
  std::unordered_set<uint32_t> prev_support =
      WeightSupport(ranker->ModelWeights());

  // ---- Candidate pool.
  std::unique_ptr<ie::RerankEngine> engine;
  std::vector<DocId> remaining;
  std::unordered_set<DocId> in_pool(processed.begin(), processed.end());
  auto add_candidate = [&](DocId id) {
    if (!in_pool.insert(id).second) return false;
    if (engine != nullptr) {
      SpanRecorder::Scope span(spans, Layer::kFrontier);
      engine->AddCandidate(id);
    } else {
      remaining.push_back(id);
    }
    return true;
  };
  auto search = [&](const std::string& query, size_t depth) {
    std::vector<ie::SearchHit> hits;
    {
      SpanRecorder::Scope span(spans, Layer::kSearch);
      hits = context.index->SearchText(query, context.corpus->vocab(), depth);
    }
    ++out.queries;
    out.hits += hits.size();
    for (const ie::SearchHit& hit : hits) {
      out.new_candidates += add_candidate(hit.doc) ? 1 : 0;
    }
  };
  if (config.access == ie::AccessMode::kFullAccess) {
    for (DocId id : pool) add_candidate(id);
  } else {
    if (context.index == nullptr) {
      throw std::invalid_argument("replay: search access needs an index");
    }
    std::vector<std::string> queries;
    {
      SpanRecorder::Scope span(spans, Layer::kQuerySelect);
      queries = ie::LearnQueries(sample_examples, context.corpus->vocab(),
                                 ie::QueryMethod::kSvmWeights,
                                 config.search_initial_queries,
                                 rng.NextUint64());
    }
    for (const std::string& query : queries) {
      search(query, config.search_initial_depth);
    }
  }
  rng.Shuffle(remaining);

  engine = std::make_unique<ie::RerankEngine>(
      ranker.get(), context.word_features, ie::RerankOptions{});
  for (DocId id : remaining) {
    SpanRecorder::Scope span(spans, Layer::kFrontier);
    engine->AddCandidate(id);
  }
  auto rerank = [&]() {
    SpanRecorder::Scope span(spans, Layer::kRerank);
    engine->Rerank();
    ++out.reranks;
  };
  rerank();

  // ---- Extraction loop.
  std::vector<LabeledExample> buffer;
  std::deque<DocId> lookahead;
  auto fill_lookahead = [&]() {
    while (lookahead.size() < window) {
      DocId next_doc = 0;
      bool popped;
      {
        SpanRecorder::Scope span(spans, Layer::kFrontier);
        popped = engine->PopNext(&next_doc);
      }
      if (!popped) break;
      executor.Prefetch(next_doc);
      lookahead.push_back(next_doc);
    }
  };
  fill_lookahead();
  while (!lookahead.empty()) {
    const DocId id = lookahead.front();
    lookahead.pop_front();
    LabeledExample example = consume(id);
    const bool useful = example.label > 0;

    bool triggered;
    {
      SpanRecorder::Scope span(spans, Layer::kObserve);
      triggered = detector->Observe(example.features, useful, *ranker);
    }
    const int64_t observed_ns = NowNs();
    ++out.checks;
    buffer.push_back(std::move(example));

    if (triggered) {
      while (!lookahead.empty()) {
        SpanRecorder::Scope span(spans, Layer::kFrontier);
        engine->Requeue(lookahead.back());
        lookahead.pop_back();
      }
      executor.CancelQueued();
    }
    if (triggered && engine->pending() > 0) {
      pause_start_ns = observed_ns;
      {
        SpanRecorder::Scope span(spans, Layer::kRetrain);
        for (const LabeledExample& ex : buffer) {
          ranker->Observe(ex.features, ex.label > 0);
        }
      }
      const std::unordered_set<uint32_t> support =
          WeightSupport(ranker->ModelWeights());
      for (uint32_t f : support) {
        out.features_churned += prev_support.count(f) == 0;
      }
      for (uint32_t f : prev_support) {
        out.features_churned += support.count(f) == 0;
      }
      prev_support = support;
      {
        SpanRecorder::Scope span(spans, Layer::kRefresh);
        detector->OnModelUpdated(*ranker, buffer);
        ++out.refreshes;
      }
      buffer.clear();
      out.update_positions.push_back(out.processing_order.size());

      if (config.access == ie::AccessMode::kSearchInterface) {
        std::vector<ie::WeightedFeature> top;
        {
          SpanRecorder::Scope span(spans, Layer::kQuerySelect);
          top = ie::TopKFeatures(ranker->ModelWeights(),
                                 config.search_refresh_features);
        }
        const ie::Vocabulary& vocab = context.corpus->vocab();
        for (const ie::WeightedFeature& f : top) {
          if (f.id >= vocab.size()) continue;
          const std::string& term = vocab.Term(f.id);
          if (!ie::IsQueryableTerm(term)) continue;
          search(term, config.search_refresh_depth);
        }
      }
      rerank();
    }
    fill_lookahead();
  }

  // ---- Search access: documents no query retrieved go last, shuffled.
  if (config.access == ie::AccessMode::kSearchInterface) {
    std::vector<DocId> leftovers;
    for (DocId id : pool) {
      if (processed.count(id) == 0) leftovers.push_back(id);
    }
    rng.Shuffle(leftovers);
    consume_in_order(leftovers, nullptr);
  }
  out.executor = executor.stats();
  out.end_ns = NowNs();
  return out;
}

}  // namespace perfbench
