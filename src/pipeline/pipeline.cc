#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>

#include "common/arena.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "learn/feature_selection.h"
#include "pipeline/extract_executor.h"
#include "pipeline/recorder.h"
#include "pipeline/rerank_engine.h"
#include "pipeline/session.h"
#include "ranking/query_learning.h"

namespace ie {

const char* RankerKindName(RankerKind kind) {
  switch (kind) {
    case RankerKind::kRandom:
      return "Random";
    case RankerKind::kPerfect:
      return "Perfect";
    case RankerKind::kBAggIE:
      return "BAgg-IE";
    case RankerKind::kRSVMIE:
      return "RSVM-IE";
  }
  return "?";
}

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kNone:
      return "none";
    case UpdateKind::kWindF:
      return "Wind-F";
    case UpdateKind::kFeatS:
      return "Feat-S";
    case UpdateKind::kTopK:
      return "Top-K";
    case UpdateKind::kModC:
      return "Mod-C";
  }
  return "?";
}

const char* SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kSRS:
      return "SRS";
    case SamplerKind::kCQS:
      return "CQS";
  }
  return "?";
}

const char* AccessModeName(AccessMode mode) {
  switch (mode) {
    case AccessMode::kFullAccess:
      return "full";
    case AccessMode::kSearchInterface:
      return "search";
  }
  return "?";
}

PipelineConfig PipelineConfig::Defaults(RankerKind ranker,
                                        SamplerKind sampler,
                                        UpdateKind update, uint64_t seed) {
  PipelineConfig config;
  config.ranker = ranker;
  config.sampler = sampler;
  config.update = update;
  config.seed = seed;
  // Paper values are 5 deg (RSVM-IE) and 30 deg (BAgg-IE); our models
  // drift less per observed document (smaller effective learning rate), so
  // the thresholds are recalibrated to preserve the paper's update-count
  // regime (tens of updates, concentrated early) while keeping the
  // paper's per-ranker separation: the BAgg-IE committee mean swings
  // through a wider angle per absorbed batch than the RSVM-IE weights, so
  // its trigger sits higher.
  config.modc.alpha_degrees =
      ranker == RankerKind::kBAggIE ? 6.0 : 2.0;
  return config;
}

std::vector<SparseVector> FeaturizePool(const Corpus& corpus,
                                        const Featurizer& featurizer,
                                        size_t threads) {
  // Bigram feature ids must not depend on the parallel execution order:
  // warm the cache serially in document order (the same order the serial
  // pass would have interned them) so the parallel pass only reads it.
  if (featurizer.options().use_bigrams) {
    for (DocId id = 0; id < corpus.size(); ++id) {
      featurizer.WarmBigrams(corpus.doc(id));
    }
  }
  std::vector<SparseVector> features(corpus.size());
  ParallelFor(corpus.size(), threads, [&](size_t id) {
    features[id] = featurizer.Featurize(corpus.doc(static_cast<DocId>(id)));
  });
  return features;
}

std::vector<float> ComputeIdf(const Corpus& corpus, size_t threads) {
  const size_t vocab_size = corpus.vocab().size();
  const size_t docs = corpus.size();
  // Per-block document-frequency counts, merged in fixed block order.
  // Counts are integers, so the merged table — and hence every idf float —
  // is exactly what the serial pass produces.
  const size_t blocks = threads <= 1 ? 1 : threads;
  const size_t block_size = (docs + blocks - 1) / blocks;
  std::vector<std::vector<uint32_t>> partial(blocks);
  ParallelFor(blocks, threads, [&](size_t b) {
    std::vector<uint32_t>& df = partial[b];
    df.assign(vocab_size, 0);
    std::vector<uint32_t> seen_at(vocab_size, 0xffffffffu);
    const size_t begin = b * block_size;
    const size_t end = std::min(docs, begin + block_size);
    for (size_t id = begin; id < end; ++id) {
      for (const Sentence& sentence :
           corpus.doc(static_cast<DocId>(id)).sentences) {
        for (TokenId token : sentence.tokens) {
          if (token < df.size() && seen_at[token] != id) {
            seen_at[token] = static_cast<uint32_t>(id);
            ++df[token];
          }
        }
      }
    }
  });
  std::vector<uint32_t> df(vocab_size, 0);
  for (const std::vector<uint32_t>& block_df : partial) {
    for (size_t i = 0; i < vocab_size; ++i) df[i] += block_df[i];
  }
  std::vector<float> idf(df.size());
  const double n = static_cast<double>(corpus.size());
  ParallelFor(df.size(), threads, [&](size_t i) {
    idf[i] = static_cast<float>(std::log(1.0 + n / (df[i] + 1.0)));
  });
  return idf;
}

InvertedIndex BuildPoolIndex(const Corpus& corpus,
                             const std::vector<DocId>& pool) {
  InvertedIndex index;
  for (DocId id : pool) {
    IE_CHECK(index.Add(corpus.doc(id)).ok());
  }
  return index;
}

CompactIndex BuildCompactPoolIndex(const Corpus& corpus,
                                   const std::vector<DocId>& pool,
                                   size_t build_threads) {
  CompactIndex index;
  for (DocId id : pool) {
    IE_CHECK(index.Add(corpus.doc(id)).ok());
  }
  index.Finalize(build_threads);
  return index;
}

namespace {

/// Support set of a model's non-zero weights (feature-churn accounting).
/// Iterates the stored non-zeros directly instead of issuing a
/// bounds-checked Get per vocabulary id.
std::unordered_set<uint32_t> WeightSupport(const WeightVector& w) {
  std::unordered_set<uint32_t> support;
  w.ForEachNonZero([&support](uint32_t id, double value) {
    if (std::abs(value) > 1e-9) support.insert(id);
  });
  return support;
}

/// Squared L2 distance between two dense weight vectors, padding the
/// shorter with zeros (flight-recorder ‖Δw‖; id-ordered, deterministic).
double WeightDeltaNormSquared(const WeightVector& a, const WeightVector& b) {
  const std::vector<double>& av = a.raw();
  const std::vector<double>& bv = b.raw();
  const size_t n = std::max(av.size(), bv.size());
  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d =
        (i < bv.size() ? bv[i] : 0.0) - (i < av.size() ? av[i] : 0.0);
    sq += d * d;
  }
  return sq;
}

/// The run proper. Kept separate from Run() so the ExtractExecutor (and its
/// worker threads) are joined — via `executor`'s destructor at the end of
/// this scope — before Run() exports the trace and snapshots the registry:
/// both reads then observe fully quiesced writers.
PipelineResult RunImpl(const SharedContext& context,
                       const PipelineConfig& config) {
  IE_TRACE_SCOPE("pipeline.run");
  IE_CHECK(context.corpus != nullptr && context.pool != nullptr &&
           context.outcomes != nullptr && context.relation != nullptr &&
           context.featurizer != nullptr &&
           context.word_features != nullptr);
  Rng rng(config.seed);

  // Every mutable collaborator of this run lives in one SessionState
  // (pipeline/session.h). Slots are filled at exactly the points the
  // pre-split code constructed the corresponding locals — the ranker and
  // detector seeds come from rng draws, so construction order is part of
  // the deterministic byte-identical contract.
  SessionState session;

  PipelineResult result;
  result.pool_size = context.pool->size();
  result.pool_useful = context.outcomes->CountUseful(*context.pool);

  // Attribute-feature ids are interned on first use; with speculative
  // workers that order would depend on scheduling. Intern them in pool
  // order up front so feature ids — and every float accumulated in id
  // order downstream — are identical at any extract_threads setting.
  for (DocId id : *context.pool) {
    for (const std::string& value : context.outcomes->AttributeValues(id)) {
      context.featurizer->AttributeFeatureId(value);
    }
  }

  // Pure per-document extraction: everything that depends only on the
  // document itself. Runs on executor workers (or inline when serial);
  // bookkeeping stays on the consumer thread in `consume` below.
  auto extract_example = [&context](DocId id) -> LabeledExample {
    bool useful;
    std::vector<std::string> attrs;
    if (context.extraction_system != nullptr) {
      const std::vector<ExtractedTuple> tuples =
          context.extraction_system->Process(context.corpus->doc(id));
      useful = !tuples.empty();
      if (useful) attrs = TupleAttributeValues(tuples);
    } else {
      useful = context.outcomes->useful(id);
      if (useful) attrs = context.outcomes->AttributeValues(id);
    }
    if (useful) {
      return {context.featurizer->Featurize(context.corpus->doc(id), attrs),
              1};
    }
    return {(*context.word_features)[id], -1};
  };
  ExtractExecutorOptions executor_options;
  executor_options.threads = config.extract_threads;
  executor_options.prefetch_window = config.prefetch_window;
  ExtractExecutor executor(extract_example, executor_options);
  const size_t window =
      executor.speculative() ? std::max<size_t>(1, config.prefetch_window)
                             : 1;

  // ---- Flight recorder (DESIGN.md §15) ---------------------------------
  // Passive observer of the loop below: when active, every consumed
  // document ends its iteration with one RecordIteration() sampling the
  // detector, engine, executor, and arena. It never feeds back into
  // control flow, so recorded and unrecorded runs are byte-identical
  // (asserted by the golden-hash matrix, which runs recorder-on).
  session.recorder = std::make_unique<PipelineRecorder>([&config] {
    PipelineRecorder::Options options;
    options.ledger_path = config.ledger_path;
    options.record_series = config.record_iterations;
    options.series_capacity = config.iteration_series_capacity;
    return options;
  }());
  if (session.recorder->active()) {
    RecorderRunInfo info;
    info.ranker = RankerKindName(config.ranker);
    info.sampler = SamplerKindName(config.sampler);
    info.update = UpdateKindName(config.update);
    info.access = AccessModeName(config.access);
    info.seed = config.seed;
    info.pool_size = context.pool->size();
    info.sample_size = std::min(config.sample_size, context.pool->size());
    info.extract_threads = config.extract_threads;
    info.scoring_threads = config.scoring_threads;
    session.recorder->BeginRun(info);
  }
  // Iteration context the record lambda reads; the loop phases fill these
  // in as the run's collaborators come to life.
  IterationPhase record_phase = IterationPhase::kWarmup;
  const UpdateDetector* detector_raw = nullptr;
  RerankEngine* engine_ptr = nullptr;
  uint64_t recorded_useful = 0;
  bool update_retrained = false;
  double update_dw = 0.0;
  std::vector<double> update_dw_c;
  auto record_iteration = [&](DocId id, bool useful) {
    if (!session.recorder->active()) return;
    IterationRecord rec;
    rec.doc = id;
    rec.phase = record_phase;
    rec.useful = useful;
    recorded_useful += useful ? 1 : 0;
    rec.useful_total = recorded_useful;
    rec.useful_rate = static_cast<double>(recorded_useful) /
                      static_cast<double>(session.recorder->iterations() + 1);
    rec.detector_statistic =
        detector_raw != nullptr ? detector_raw->LastStatistic() : 0.0;
    rec.retrained = update_retrained;
    rec.weight_delta_norm = update_dw;
    rec.component_delta_norms = std::move(update_dw_c);
    update_retrained = false;
    update_dw = 0.0;
    update_dw_c.clear();
    if (engine_ptr != nullptr) {
      rec.full_rescores = engine_ptr->stats().full_rescores;
    }
    const ExtractExecutorStats executor_stats = executor.stats();
    rec.executor_hits = executor_stats.hits;
    rec.executor_waits = executor_stats.waits;
    rec.executor_misses = executor_stats.misses;
    rec.executor_cancelled = executor_stats.cancelled;
    rec.queue_depth = executor.queue_depth();
    rec.arena_bytes = Arena::ProcessReservedBytes();
    session.recorder->RecordIteration(std::move(rec));
  };

  WallTimer extract_wall;
  std::unordered_set<DocId> processed;
  auto consume = [&](DocId id) -> LabeledExample {
    LabeledExample example = executor.Take(id);
    result.extraction_seconds += context.relation->extraction_cost_seconds;
    result.processing_order.push_back(id);
    result.processed_useful.push_back(example.label > 0 ? 1 : 0);
    processed.insert(id);
    return example;
  };
  // Consumes `ids` front to back, keeping up to `window` documents
  // prefetched ahead of the cursor (used for the fixed-order phases:
  // warmup sample and search-interface leftovers). These phases have no
  // detector/update step, so the iteration record is sampled right after
  // the consume.
  auto consume_in_order = [&](const std::vector<DocId>& ids,
                              std::vector<LabeledExample>* out) {
    size_t next_prefetch = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (; next_prefetch < ids.size() && next_prefetch < i + window;
           ++next_prefetch) {
        executor.Prefetch(ids[next_prefetch]);
      }
      LabeledExample example = consume(ids[i]);
      record_iteration(ids[i], example.label > 0);
      if (out != nullptr) out->push_back(std::move(example));
    }
  };

  // ---- Initial sample ------------------------------------------------
  session.sampler = MakeSampler(context, config.sampler);
  std::vector<DocId> sample;
  {
    IE_TRACE_SCOPE("pipeline.sample");
    sample = session.sampler->Sample(
        *context.pool, std::min(config.sample_size, context.pool->size()),
        &rng);
  }

  std::vector<LabeledExample> sample_examples;
  sample_examples.reserve(sample.size());
  {
    IE_TRACE_SCOPE("pipeline.warmup");
    consume_in_order(sample, &sample_examples);
  }
  result.warmup_documents = sample.size();
  record_phase = IterationPhase::kMain;

  // ---- Ranking generation ----------------------------------------------
  session.ranker = MakeRanker(config, rng.NextUint64());
  {
    IE_TRACE_SCOPE("pipeline.train_initial");
    CpuTimer timer;
    session.ranker->TrainInitial(sample_examples);
    result.ranking_cpu_seconds += timer.ElapsedSeconds();
  }
  session.detector =
      MakeDetector(config, context.pool->size(), rng.NextUint64());
  detector_raw = session.detector.get();
  session.detector->OnModelUpdated(*session.ranker, sample_examples);
  std::unordered_set<uint32_t> prev_support =
      WeightSupport(session.ranker->ModelWeights());

  // ---- Candidate pool --------------------------------------------------
  // Candidates discovered before the engine exists (the initial pool) are
  // staged in `remaining` and shuffled once for the deterministic
  // tie-break; later discoveries (search-interface refreshes) go straight
  // into the engine, which appends them to the same tie-break order.
  std::vector<DocId> remaining;
  // DETERMINISM: order-insensitive (set-to-set copy; only membership is
  // ever read from in_pool)
  std::unordered_set<DocId> in_pool(processed.begin(), processed.end());
  auto add_candidate = [&](DocId id) {
    if (!in_pool.insert(id).second) return;
    if (engine_ptr != nullptr) {
      engine_ptr->AddCandidate(id);
    } else {
      remaining.push_back(id);
    }
  };
  if (config.access == AccessMode::kFullAccess) {
    for (DocId id : *context.pool) add_candidate(id);
  } else {
    IE_CHECK(context.index != nullptr);
    const std::vector<std::string> queries =
        LearnQueries(sample_examples, context.corpus->vocab(),
                     QueryMethod::kSvmWeights, config.search_initial_queries,
                     rng.NextUint64());
    for (const std::string& query : queries) {
      for (const SearchHit& hit : context.index->SearchText(
               query, context.corpus->vocab(), config.search_initial_depth)) {
        add_candidate(hit.doc);
      }
    }
  }
  rng.Shuffle(remaining);  // deterministic tie-break for equal scores

  const bool adaptive =
      config.update != UpdateKind::kNone &&
      (config.ranker == RankerKind::kBAggIE ||
       config.ranker == RankerKind::kRSVMIE);

  RerankOptions rerank_options;
  rerank_options.scoring_threads = config.scoring_threads;
  // RandomRanker's Score() draws from its rng: scoring must stay serial
  // (and in insertion order) to keep runs deterministic.
  rerank_options.allow_parallel_scoring =
      config.ranker != RankerKind::kRandom;
  std::function<double(DocId)> score_override;
  if (config.ranker == RankerKind::kPerfect) {
    score_override = [&context](DocId id) {
      return context.outcomes->useful(id) ? 1.0 : 0.0;
    };
  }
  session.engine = std::make_unique<RerankEngine>(
      session.ranker.get(), context.word_features, rerank_options,
      std::move(score_override));
  for (DocId id : remaining) session.engine->AddCandidate(id);
  engine_ptr = session.engine.get();

  auto rerank = [&]() {
    IE_TRACE_SCOPE("pipeline.rank");
    // With worker threads, thread-CPU time misses the workers; fall back
    // to wall time for the overhead accounting in that configuration.
    CpuTimer cpu_timer;
    WallTimer wall_timer;
    session.engine->Rerank();
    const double seconds = config.scoring_threads > 1
                               ? wall_timer.ElapsedSeconds()
                               : cpu_timer.ElapsedSeconds();
    result.ranking_cpu_seconds += seconds;
    IE_METRIC_HIST_OBSERVE("pipeline.rank_seconds", seconds);
  };
  rerank();

  // ---- Extraction loop ---------------------------------------------------
  // The loop pops a lookahead window of the ranked frontier and prefetches
  // its extraction onto the executor while consuming strictly in popped
  // (= ranked) order. On a model update the unconsumed lookahead is
  // returned to the engine first, so the re-rank sees exactly the pending
  // set a serial run would — and any speculative results it already has
  // for demoted documents are simply consumed later.
  std::vector<LabeledExample> buffer;
  size_t peak_buffer_examples = 0;
  std::deque<DocId> lookahead;
  auto fill_lookahead = [&]() {
    DocId next_doc = 0;
    while (lookahead.size() < window && session.engine->PopNext(&next_doc)) {
      executor.Prefetch(next_doc);
      lookahead.push_back(next_doc);
    }
  };
  fill_lookahead();
  TraceSpan consume_span("pipeline.consume");
  while (!lookahead.empty()) {
    const DocId id = lookahead.front();
    lookahead.pop_front();
    LabeledExample example = consume(id);
    const bool useful = example.label > 0;

    bool triggered;
    {
      CpuTimer timer;
      triggered = session.detector->Observe(example.features, useful,
                                            *session.ranker);
      result.detector_cpu_seconds += timer.ElapsedSeconds();
    }
    // Non-adaptive runs never absorb the buffer; buffering there would
    // accumulate the whole pool's feature vectors for nothing.
    if (adaptive) {
      buffer.push_back(std::move(example));
      peak_buffer_examples = std::max(peak_buffer_examples, buffer.size());
    }

    if (triggered && adaptive) {
      while (!lookahead.empty()) {
        session.engine->Requeue(lookahead.back());
        lookahead.pop_back();
      }
      executor.CancelQueued();
    }
    if (triggered && adaptive && session.engine->pending() > 0) {
      IE_TRACE_SCOPE("pipeline.update");
      IE_METRIC_COUNT("pipeline.updates");
      {
        IE_TRACE_SCOPE("pipeline.retrain");
        CpuTimer timer;
        for (const LabeledExample& ex : buffer) {
          session.ranker->Observe(ex.features, ex.label > 0);
        }
        result.ranking_cpu_seconds += timer.ElapsedSeconds();
      }
      // Feature churn between consecutive models.
      const std::unordered_set<uint32_t> support =
          WeightSupport(session.ranker->ModelWeights());
      size_t added = 0, removed = 0;
      // DETERMINISM: order-insensitive (integer membership counting)
      for (uint32_t f : support) added += prev_support.count(f) == 0;
      // DETERMINISM: order-insensitive (integer membership counting)
      for (uint32_t f : prev_support) removed += support.count(f) == 0;
      result.features_added_per_update.push_back(added);
      result.features_removed_per_update.push_back(removed);
      prev_support = support;

      session.detector->OnModelUpdated(*session.ranker, buffer);
      buffer.clear();
      result.update_positions.push_back(result.processing_order.size());

      // Search-interface scenario: turn the refreshed model's top features
      // into new queries and grow the candidate pool.
      if (config.access == AccessMode::kSearchInterface) {
        const WeightVector weights = session.ranker->ModelWeights();
        for (const WeightedFeature& f :
             TopKFeatures(weights, config.search_refresh_features)) {
          if (f.id >= context.corpus->vocab().size()) continue;
          const std::string& term = context.corpus->vocab().Term(f.id);
          if (!IsQueryableTerm(term)) continue;
          for (const SearchHit& hit : context.index->SearchText(
                   term, context.corpus->vocab(),
                   config.search_refresh_depth)) {
            add_candidate(hit.doc);
          }
        }
      }

      // Exact per-component ‖Δw‖ across this update: the scoring
      // snapshots change only inside Rerank() (SnapshotForScoring), so
      // differencing them around the rerank captures exactly what the
      // ranking order saw. Skipped entirely when the recorder is off.
      if (session.recorder->active()) {
        const size_t components = session.ranker->ScoreComponentCount();
        std::vector<WeightVector> prev_snapshots;
        prev_snapshots.reserve(components);
        for (size_t c = 0; c < components; ++c) {
          prev_snapshots.push_back(session.ranker->ComponentSnapshotWeights(c));
        }
        rerank();
        update_retrained = true;
        update_dw_c.resize(components);
        double total_sq = 0.0;
        for (size_t c = 0; c < components; ++c) {
          const double sq = WeightDeltaNormSquared(
              prev_snapshots[c], session.ranker->ComponentSnapshotWeights(c));
          update_dw_c[c] = std::sqrt(sq);
          total_sq += sq;
        }
        update_dw = std::sqrt(total_sq);
      } else {
        rerank();
      }
    }
    record_iteration(id, useful);
    fill_lookahead();
  }

  // Search-interface scenario: documents never retrieved by any query are
  // processed last, in random order (so metrics cover the full pool).
  if (config.access == AccessMode::kSearchInterface) {
    IE_TRACE_SCOPE("pipeline.leftovers");
    std::vector<DocId> leftovers;
    for (DocId id : *context.pool) {
      if (processed.count(id) == 0) leftovers.push_back(id);
    }
    rng.Shuffle(leftovers);
    record_phase = IterationPhase::kTail;
    consume_in_order(leftovers, nullptr);
  }
  result.extract_wall_seconds = extract_wall.ElapsedSeconds();

  // Stamp the run-scoped counters from the exact per-run stats structs —
  // not from the global registry, whose counters of the same names
  // aggregate across concurrent runs. The result accessors
  // (speculative_hits() etc.) read these, so they are written even when
  // config.metrics_enabled is false.
  const ExtractExecutorStats executor_stats = executor.stats();
  result.extract_cpu_seconds =
      executor_stats.worker_cpu_seconds + executor_stats.inline_cpu_seconds;
  result.metrics.SetCounter("executor.hits", executor_stats.hits);
  result.metrics.SetCounter("executor.waits", executor_stats.waits);
  result.metrics.SetCounter("executor.misses", executor_stats.misses);
  result.metrics.SetCounter("executor.cancelled", executor_stats.cancelled);

  result.metrics.SetCounter("rerank.full_rescores",
                            session.engine->stats().full_rescores);
  result.metrics.SetCounter("pipeline.peak_buffer_examples",
                            peak_buffer_examples);
  result.metrics.SetCounter("pipeline.documents_processed",
                            result.processing_order.size());

  if (session.recorder->active()) {
    RecorderRunSummary summary;
    summary.updates = result.update_positions.size();
    summary.useful_total = recorded_useful;
    summary.extraction_seconds = result.extraction_seconds;
    summary.extract_cpu_seconds = result.extract_cpu_seconds;
    summary.extract_wall_seconds = result.extract_wall_seconds;
    summary.ranking_cpu_seconds = result.ranking_cpu_seconds;
    summary.detector_cpu_seconds = result.detector_cpu_seconds;
    session.recorder->EndRun(summary);
  }
#if IE_OBSERVABILITY
  if (config.record_iterations) result.iterations = session.recorder->TakeSeries();
#endif

  result.final_model_features = session.ranker->NonZeroFeatureCount();
  // Final model snapshot, id-sorted (ForEachNonZero walks the dense
  // weight array in id order): the determinism golden test hashes this so
  // weight-level nondeterminism fails loudly, not just order-level.
  session.ranker->ModelWeights().ForEachNonZero([&result](uint32_t id, double w) {
    result.final_weights.emplace_back(id, w);
  });
  return result;
}

}  // namespace

PipelineResult AdaptiveExtractionPipeline::Run(
    const SharedContext& context, const PipelineConfig& config) {
  // Trace/metrics sessions wrap RunImpl so that by the time we export the
  // trace and snapshot the registry, RunImpl's executor destructor has
  // joined every worker thread (quiesced writers; race-free reads).
  const bool tracing =
      !config.trace_path.empty() &&
      Tracer::Global().Start(config.trace_buffer_events);
  if (!config.trace_path.empty() && !tracing) {
    IE_LOG(kWarn) << "trace_path set but another trace session is active; "
                     "skipping trace for this run";
  }
  MetricsSnapshot start;
  if (config.metrics_enabled) {
    start = MetricsRegistry::Global().Snapshot();
  }

  PipelineResult result = RunImpl(context, config);

  if (config.metrics_enabled) {
    MetricsSnapshot delta =
        MetricsRegistry::Global().Snapshot().DeltaSince(start);
    // Keep the exact run-scoped counters RunImpl stamped; fill everything
    // else (histograms, gauges, macro-tallied counters) from the delta.
    for (const auto& [name, value] : result.metrics.counters) {
      delta.SetCounter(name, value);
    }
    result.metrics = std::move(delta);
  }
  if (tracing) {
    const Status status = Tracer::Global().StopAndExport(config.trace_path);
    if (!status.ok()) {
      IE_LOG(kWarn) << "trace export failed: " << status.ToString();
    }
  }
  return result;
}

}  // namespace ie
