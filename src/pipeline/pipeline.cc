#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>

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
  std::vector<SparseVector> features(corpus.size());
  ParallelFor(corpus.size(), threads, [&](size_t id) {
    features[id] = featurizer.Featurize(corpus.doc(static_cast<DocId>(id)));
  });
  return features;
}

CompactIndex BuildPoolIndex(const Corpus& corpus,
                            const std::vector<DocId>& pool) {
  CompactIndex index;
  for (DocId id : DistinctPool(pool)) {
    IE_CHECK(index.Add(corpus.doc(id)).ok());
  }
  index.Finalize();
  return index;
}

namespace {

/// Ids of a model's weights above 1e-9 in magnitude, ascending
/// (feature-churn accounting). Visits the model without materializing it.
std::vector<uint32_t> ModelSupport(const DocumentRanker& ranker) {
  std::vector<uint32_t> support;
  ranker.ForEachModelWeight([&support](uint32_t id, double w) {
    if (std::abs(w) > 1e-9) support.push_back(id);
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

/// Pure per-document extraction: everything that depends only on the
/// document itself. Runs on executor workers (or inline when serial);
/// bookkeeping stays on the consumer thread in ExtractionSession::Consume.
LabeledExample ExtractExample(const SharedContext& context, DocId id) {
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
    return {context.featurizer->Featurize(context.corpus->doc(id), attrs), 1};
  }
  return {(*context.word_features)[id], -1};
}

/// One adaptive run: the per-run mutable half of the shared/session split
/// (DESIGN.md §16). It owns every collaborator the loop mutates, and
/// SharedContext holds everything the loop only reads. The ranker and
/// detector are built where the loop first needs them: their seeds are
/// rng draws, and the draw order is part of the byte-identical contract
/// (DESIGN.md §12).
class ExtractionSession {
 public:
  ExtractionSession(const SharedContext& context, const PipelineConfig& config)
      : context_(context),
        config_(config),
        pool_(DistinctPool(*context.pool)),
        rng_(config.seed),
        executor_([&context](DocId id) { return ExtractExample(context, id); },
                  {.threads = config.extract_threads,
                   .prefetch_window = config.prefetch_window}),
        window_(executor_.speculative()
                    ? std::max<size_t>(1, config.prefetch_window)
                    : 1),
        recorder_(config.ledger_path) {
    result_.pool_size = pool_.size();
    result_.pool_useful = context.outcomes->CountUseful(pool_);
    // Attribute-feature ids are interned on first use; with speculative
    // workers that order would depend on scheduling. Intern them in pool
    // order up front so feature ids — and every float accumulated in id
    // order downstream — are identical at any extract_threads setting.
    for (DocId id : pool_) {
      for (const std::string& value : context.outcomes->AttributeValues(id)) {
        context.featurizer->AttributeFeatureId(value);
      }
    }
  }

  /// Runs the paper's loop to the end: sample → rank → extract in ranked
  /// order, retraining and re-ranking when the detector fires → (search
  /// access) the documents no query retrieved.
  PipelineResult Run() {
    IE_TRACE_SCOPE("pipeline.run");
    recorder_.BeginRun(config_, pool_.size());
    WallTimer extract_wall;
    BuildFrontier(Warmup());
    ExtractRanked();
    if (config_.access == AccessMode::kSearchInterface) ExtractLeftovers();
    result_.extract_wall_seconds = extract_wall.ElapsedSeconds();

    const ExtractExecutorStats stats = executor_.stats();
    result_.extract_cpu_seconds =
        stats.worker_cpu_seconds + stats.inline_cpu_seconds;
    result_.speculative_hits = stats.hits;
    result_.speculative_waits = stats.waits;
    result_.speculative_misses = stats.misses;
    result_.speculative_cancelled = stats.cancelled;
    result_.full_rescores = engine_->stats().full_rescores;
    recorder_.EndRun(result_);
    result_.final_model_features = ranker_->NonZeroFeatureCount();
    // Final model snapshot, id-sorted (the model visit runs in id order):
    // the determinism golden test hashes this so weight-level
    // nondeterminism fails loudly, not just order-level.
    ranker_->ForEachModelWeight([this](uint32_t id, double w) {
      result_.final_weights.emplace_back(id, w);
    });
    return std::move(result_);
  }

 private:
  /// Samples the pool, processes the sample in order, trains the initial
  /// model on it and primes the detector. Returns the labeled sample.
  std::vector<LabeledExample> Warmup() {
    std::vector<DocId> sample;
    {
      IE_TRACE_SCOPE("pipeline.sample");
      sample = MakeSampler(context_, config_.sampler)
                   ->Sample(pool_, std::min(config_.sample_size, pool_.size()),
                            &rng_);
    }
    std::vector<LabeledExample> examples;
    examples.reserve(sample.size());
    {
      IE_TRACE_SCOPE("pipeline.warmup");
      ConsumeInOrder(sample, &examples);
    }
    seen_.insert(sample.begin(), sample.end());
    result_.warmup_documents = sample.size();
    phase_ = IterationPhase::kMain;

    ranker_ = MakeRanker(config_, rng_.NextUint64());
    {
      IE_TRACE_SCOPE("pipeline.train_initial");
      CpuTimer timer;
      ranker_->TrainInitial(examples);
      result_.ranking_cpu_seconds += timer.ElapsedSeconds();
    }
    detector_ = MakeDetector(config_, pool_.size(), rng_.NextUint64());
    RefreshDetector(examples);
    support_ = ModelSupport(*ranker_);
    return examples;
  }

  /// Collects the initial candidates (the whole pool, or the hits of
  /// queries learned from the sample), shuffles them once for the
  /// deterministic tie-break between equal scores, and ranks them.
  void BuildFrontier(const std::vector<LabeledExample>& sample) {
    if (config_.access == AccessMode::kFullAccess) {
      for (DocId id : pool_) AddCandidate(id);
    } else {
      IE_CHECK(context_.index != nullptr);
      for (const std::string& query :
           LearnQueries(sample, context_.corpus->vocab(),
                        QueryMethod::kSvmWeights,
                        config_.search_initial_queries, rng_.NextUint64())) {
        AddSearchHits(query, config_.search_initial_depth);
      }
    }
    rng_.Shuffle(staged_);

    std::function<double(DocId)> score_override;
    if (config_.ranker == RankerKind::kPerfect) {
      score_override = [this](DocId id) {
        return context_.outcomes->useful(id) ? 1.0 : 0.0;
      };
    }
    engine_ = std::make_unique<RerankEngine>(
        ranker_.get(), context_.word_features, RerankOptions{},
        std::move(score_override));
    for (DocId id : staged_) engine_->AddCandidate(id);
    Rerank();
  }

  /// The ranked phase. It pops a lookahead window of the frontier and
  /// prefetches its extraction onto the executor while consuming strictly
  /// in popped (= ranked) order. On a model update the unconsumed
  /// lookahead goes back to the engine first, so the re-rank sees exactly
  /// the pending set a serial run would — and any speculative results
  /// already made for demoted documents are simply consumed later.
  void ExtractRanked() {
    const bool adaptive = config_.update != UpdateKind::kNone &&
                          (config_.ranker == RankerKind::kBAggIE ||
                           config_.ranker == RankerKind::kRSVMIE);
    FillLookahead();
    TraceSpan consume_span("pipeline.consume");
    while (!lookahead_.empty()) {
      const DocId id = lookahead_.front();
      lookahead_.pop_front();
      LabeledExample example = Consume(id);
      const bool useful = example.label > 0;
      bool triggered;
      {
        CpuTimer timer;
        triggered = detector_->Observe(example.features, useful, *ranker_);
        result_.detector_cpu_seconds += timer.ElapsedSeconds();
      }
      IterationRecord record;
      // Non-adaptive runs never absorb the buffer; buffering there would
      // accumulate the whole pool's feature vectors for nothing.
      if (adaptive) {
        buffer_.push_back(std::move(example));
        result_.peak_buffer_examples =
            std::max(result_.peak_buffer_examples, buffer_.size());
        if (triggered) {
          for (; !lookahead_.empty(); lookahead_.pop_back()) {
            engine_->Requeue(lookahead_.back());
          }
          executor_.CancelQueued();
          if (engine_->pending() > 0) Update(&record);
        }
      }
      Record(std::move(record), id, useful);
      FillLookahead();
    }
  }

  /// Absorbs the buffered examples into the model, refreshes the detector
  /// (and, with search access, the candidate pool) and re-ranks. With the
  /// recorder on, writes the update's ‖Δw‖ into `record`.
  void Update(IterationRecord* record) {
    IE_TRACE_SCOPE("pipeline.update");
    IE_METRIC_COUNT("pipeline.updates");
    {
      IE_TRACE_SCOPE("pipeline.retrain");
      CpuTimer timer;
      for (const LabeledExample& ex : buffer_) {
        ranker_->Observe(ex.features, ex.label > 0);
      }
      result_.ranking_cpu_seconds += timer.ElapsedSeconds();
    }
    // Feature churn between consecutive models: both supports are
    // id-sorted, so one merge counts the features they share.
    std::vector<uint32_t> support = ModelSupport(*ranker_);
    size_t shared = 0;
    for (size_t i = 0, j = 0; i < support.size() && j < support_.size();) {
      if (support[i] < support_[j]) {
        ++i;
      } else if (support_[j] < support[i]) {
        ++j;
      } else {
        ++shared;
        ++i;
        ++j;
      }
    }
    result_.features_added_per_update.push_back(support.size() - shared);
    result_.features_removed_per_update.push_back(support_.size() - shared);
    support_ = std::move(support);

    RefreshDetector(buffer_);
    buffer_.clear();
    result_.update_positions.push_back(result_.processing_order.size());

    // Search-interface scenario: turn the refreshed model's top features
    // into new queries and grow the candidate pool.
    if (config_.access == AccessMode::kSearchInterface) RefreshQueries();
    if (!recorder_.active()) {
      Rerank();
      return;
    }
    // Exact per-component ‖Δw‖ across this update: the scoring snapshots
    // change only inside Rerank() (SnapshotForScoring), so differencing
    // them around the re-rank captures exactly what the ranking order saw.
    const size_t components = ranker_->ScoreComponentCount();
    std::vector<WeightVector> before;
    before.reserve(components);
    for (size_t c = 0; c < components; ++c) {
      before.push_back(ranker_->ComponentSnapshotWeights(c));
    }
    Rerank();
    record->retrained = true;
    record->component_delta_norms.resize(components);
    double total_sq = 0.0;
    for (size_t c = 0; c < components; ++c) {
      const double sq = WeightDeltaNormSquared(
          before[c], ranker_->ComponentSnapshotWeights(c));
      record->component_delta_norms[c] = std::sqrt(sq);
      total_sq += sq;
    }
    record->weight_delta_norm = std::sqrt(total_sq);
  }

  /// Hands the updated model to the detector. The refresh (Feat-S's
  /// one-class retrain, Mod-C's re-clone) counts as detection CPU.
  void RefreshDetector(const std::vector<LabeledExample>& examples) {
    CpuTimer timer;
    detector_->OnModelUpdated(*ranker_, examples);
    result_.detector_cpu_seconds += timer.ElapsedSeconds();
  }

  /// Queries the index with each queryable top feature of the updated
  /// model. A feature already issued as a refresh query this run is
  /// skipped: the index, the depth and the feature's term are fixed for
  /// the run and `seen_` only grows, so every hit of the repeat is already
  /// a candidate or processed (DESIGN.md §19).
  void RefreshQueries() {
    IE_TRACE_SCOPE("pipeline.refresh_queries");
    const Vocabulary& vocab = context_.corpus->vocab();
    const WeightVector weights = ranker_->ModelWeights();
    for (const WeightedFeature& f :
         TopKFeatures(weights, config_.search_refresh_features)) {
      if (f.id >= vocab.size()) continue;
      const std::string& term = vocab.Term(f.id);
      if (!IsQueryableTerm(term)) continue;
      if (refresh_issued_.size() <= f.id) refresh_issued_.resize(f.id + 1);
      if (refresh_issued_[f.id] != 0) {
        IE_METRIC_COUNT("pipeline.refresh_queries_repeated");
        continue;
      }
      refresh_issued_[f.id] = 1;
      IE_METRIC_COUNT("pipeline.refresh_queries");
      AddSearchHits(term, config_.search_refresh_depth);
    }
  }

  /// Search access: documents never retrieved by any query are processed
  /// last, in random order, so metrics cover the full pool.
  void ExtractLeftovers() {
    IE_TRACE_SCOPE("pipeline.leftovers");
    std::vector<DocId> leftovers;
    for (DocId id : pool_) {
      if (seen_.count(id) == 0) leftovers.push_back(id);
    }
    rng_.Shuffle(leftovers);
    phase_ = IterationPhase::kTail;
    ConsumeInOrder(leftovers, nullptr);
  }

  void Rerank() {
    IE_TRACE_SCOPE("pipeline.rank");
    CpuTimer timer;
    engine_->Rerank();
    result_.ranking_cpu_seconds += timer.ElapsedSeconds();
  }

  /// Candidates found before the engine exists are staged; later ones
  /// (search-access refreshes) join the engine's tie-break order directly.
  void AddCandidate(DocId id) {
    if (!seen_.insert(id).second) return;
    if (engine_ != nullptr) {
      engine_->AddCandidate(id);
    } else {
      staged_.push_back(id);
    }
  }

  void AddSearchHits(const std::string& query, size_t depth) {
    for (const SearchHit& hit :
         context_.index->SearchText(query, context_.corpus->vocab(), depth)) {
      AddCandidate(hit.doc);
    }
  }

  void FillLookahead() {
    DocId next = 0;
    while (lookahead_.size() < window_ && engine_->PopNext(&next)) {
      executor_.Prefetch(next);
      lookahead_.push_back(next);
    }
  }

  LabeledExample Consume(DocId id) {
    LabeledExample example = executor_.Take(id);
    result_.extraction_seconds += context_.relation->extraction_cost_seconds;
    result_.processing_order.push_back(id);
    result_.processed_useful.push_back(example.label > 0 ? 1 : 0);
    return example;
  }

  /// Consumes `ids` front to back, keeping up to `window_` documents
  /// prefetched ahead of the cursor (the fixed-order phases: the warmup
  /// sample and the search-access leftovers). These phases have no update
  /// step, so each iteration is recorded right after its consume.
  void ConsumeInOrder(const std::vector<DocId>& ids,
                      std::vector<LabeledExample>* out) {
    size_t next_prefetch = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (; next_prefetch < ids.size() && next_prefetch < i + window_;
           ++next_prefetch) {
        executor_.Prefetch(ids[next_prefetch]);
      }
      LabeledExample example = Consume(ids[i]);
      Record(IterationRecord{}, ids[i], example.label > 0);
      if (out != nullptr) out->push_back(std::move(example));
    }
  }

  /// Completes this iteration's flight-recorder record (DESIGN.md §15)
  /// from the detector, engine and executor. The recorder is a
  /// passive observer: recorded and unrecorded runs are byte-identical
  /// (the golden-hash matrix runs recorder-on).
  void Record(IterationRecord record, DocId id, bool useful) {
    if (!recorder_.active()) return;
    record.doc = id;
    record.phase = phase_;
    record.useful = useful;
    if (detector_ != nullptr) {
      record.detector_statistic = detector_->LastStatistic();
    }
    if (engine_ != nullptr) {
      record.full_rescores = engine_->stats().full_rescores;
    }
    const ExtractExecutorStats stats = executor_.stats();
    record.executor_hits = stats.hits;
    record.executor_waits = stats.waits;
    record.executor_misses = stats.misses;
    record.executor_cancelled = stats.cancelled;
    record.queue_depth = executor_.queue_depth();
    recorder_.RecordIteration(std::move(record));
  }

  const SharedContext& context_;
  const PipelineConfig& config_;
  const std::vector<DocId> pool_;  // distinct ids (DistinctPool)
  Rng rng_;
  PipelineResult result_;
  ExtractExecutor executor_;
  const size_t window_;  // lookahead and in-order prefetch distance
  PipelineRecorder recorder_;
  IterationPhase phase_ = IterationPhase::kWarmup;
  std::unique_ptr<DocumentRanker> ranker_;
  std::unique_ptr<UpdateDetector> detector_;
  std::unique_ptr<RerankEngine> engine_;
  /// Documents processed in the warmup or ever made candidates; only
  /// membership is read. Once the engine drains, it holds every document
  /// processed so far.
  std::unordered_set<DocId> seen_;
  std::vector<DocId> staged_;  // candidates found before the engine
  /// Indexed by feature id: 1 once issued as a refresh query this run.
  std::vector<uint8_t> refresh_issued_;
  std::vector<LabeledExample> buffer_;  // examples since the last update
  std::deque<DocId> lookahead_;
  std::vector<uint32_t> support_;  // current model's features, ascending
};

}  // namespace

PipelineResult AdaptiveExtractionPipeline::Run(
    const SharedContext& context, const PipelineConfig& config) {
  IE_CHECK(context.corpus != nullptr && context.pool != nullptr &&
           context.outcomes != nullptr && context.relation != nullptr &&
           context.featurizer != nullptr &&
           context.word_features != nullptr);
  const bool tracing =
      !config.trace_path.empty() && Tracer::Global().Start();
  if (!config.trace_path.empty() && !tracing) {
    IE_LOG(kWarn) << "trace_path set but another trace session is active; "
                     "skipping trace for this run";
  }
  const MetricsSnapshot start = MetricsRegistry::Global().Snapshot();
  // The session is a temporary: its executor joins every worker before
  // the registry is read and the trace exported (quiesced writers).
  PipelineResult result = ExtractionSession(context, config).Run();
  result.metrics = MetricsRegistry::Global().Snapshot().DeltaSince(start);
  if (tracing) {
    const Status status = Tracer::Global().StopAndExport(config.trace_path);
    if (!status.ok()) {
      IE_LOG(kWarn) << "trace export failed: " << status.ToString();
    }
  }
  return result;
}

}  // namespace ie
