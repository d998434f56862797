// AdaptiveExtractionPipeline — the paper's Figure 2 loop: initial sample →
// ranking generation → ordered tuple extraction → update detection →
// (adaptive) model refresh and re-rank. Supports the full-access scenario
// (rank the whole pool) and the search-interface scenario (grow the pool by
// querying with the top features of the updated model).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/arch.h"
#include "corpus/corpus.h"
#include "extract/extraction_system.h"
#include "index/compact_index.h"
#include "pipeline/result.h"
#include "ranking/learned_rankers.h"
#include "text/featurizer.h"
#include "update/update_detector.h"

namespace ie {

enum class RankerKind { kRandom, kPerfect, kBAggIE, kRSVMIE };
enum class SamplerKind { kSRS, kCQS };
enum class UpdateKind { kNone, kWindF, kFeatS, kTopK, kModC };
enum class AccessMode { kFullAccess, kSearchInterface };

const char* RankerKindName(RankerKind kind);
const char* UpdateKindName(UpdateKind kind);
const char* SamplerKindName(SamplerKind kind);
const char* AccessModeName(AccessMode mode);

struct PipelineConfig {
  RankerKind ranker = RankerKind::kRSVMIE;
  SamplerKind sampler = SamplerKind::kSRS;
  UpdateKind update = UpdateKind::kNone;
  AccessMode access = AccessMode::kFullAccess;

  /// Initial sample budget. The paper uses 2000 over a ~1.1M-document test
  /// split (~0.2%); at bench scale use ~1-2% of the pool.
  size_t sample_size = 200;
  uint64_t seed = 1;

  /// Learned-ranker hyperparameters (paper defaults; ablations override).
  RsvmIeOptions rsvm = {};
  BaggIeOptions bagg = {};

  /// Wind-F fires this many times over the run (paper: 50); 0 never fires.
  size_t windf_updates = 50;
  TopKOptions topk = {};
  ModCOptions modc = {};  // alpha auto-set per ranker by Defaults()
  FeatSOptions feats = {};

  /// Worker threads for speculative per-document extraction (see
  /// pipeline/extract_executor.h). <= 1 runs extraction inline on the
  /// consumer thread (the serial reference). Results are byte-identical at
  /// every thread count — per-document extraction is pure and consumption
  /// stays strictly in ranked order.
  size_t extract_threads = 1;
  /// How far ahead of the ranked frontier the executor may speculate:
  /// maximum outstanding prefetched documents (queued + running + done but
  /// unconsumed). Also the size of the popped-but-unconsumed lookahead the
  /// loop returns to the engine (RerankEngine::Requeue) before a re-rank.
  size_t prefetch_window = 64;

  /// Search-interface scenario parameters.
  size_t search_initial_queries = 20;
  size_t search_initial_depth = 400;
  size_t search_refresh_features = 100;  // paper: top-100 features
  size_t search_refresh_depth = 100;

  /// When non-empty, the run records begin/end spans + counter tracks into
  /// the global Tracer and writes a Chrome-trace/Perfetto JSON here
  /// (validate with tools/check_trace.py). Skipped with a warning if
  /// another trace session is already active.
  std::string trace_path;

  /// Flight recorder (DESIGN.md §15; pipeline/recorder.h). When non-empty,
  /// every processed document appends one JSONL line to this path, flushed
  /// per line — a crashed run's ledger stays parseable up to the crash.
  /// Validate/render/diff with tools/report.py.
  std::string ledger_path;

  /// Builds a config with per-ranker detector defaults. Mod-C α keeps the
  /// paper's ordering (BAgg-IE above RSVM-IE; paper: 30° vs 5°) at
  /// thresholds recalibrated for these models' drift (6° vs 2°).
  static PipelineConfig Defaults(RankerKind ranker, SamplerKind sampler,
                                 UpdateKind update, uint64_t seed);
};

/// The shared-immutable half of the shared/session state split
/// (DESIGN.md §16): per-experiment inputs that any number of concurrent
/// sessions — seeds, configurations, and eventually the multi-tenant
/// service's extraction sessions — read with no synchronization. Every
/// member is a deep-const view; the `shared-immutable` lint rule
/// cross-checks the IE_SHARED_IMMUTABLE marker, so a mutable member or a
/// non-const pointer cannot slip in silently. All per-run mutable state
/// lives in the run's ExtractionSession (private to pipeline.cc).
struct IE_SHARED_IMMUTABLE SharedContext {
  const Corpus* corpus = nullptr;
  const std::vector<DocId>* pool = nullptr;  // e.g. the test split
  const ExtractionOutcomes* outcomes = nullptr;
  const RelationSpec* relation = nullptr;
  /// The featurizer has no mutable member. Its one write goes to the
  /// vocabulary: AttributeFeatureId interns a new attribute feature, which
  /// the run does for the whole pool, in pool order, before extraction.
  const Featurizer* featurizer = nullptr;
  /// Word-feature vectors indexed by DocId (see FeaturizePool).
  const std::vector<SparseVector>* word_features = nullptr;
  /// Index over the pool; required for CQS and search-interface access.
  const SearchIndex* index = nullptr;
  /// One learned query list for CQS (required when sampler == kCQS).
  const std::vector<std::string>* cqs_queries = nullptr;
  /// Optional live extraction: when set, every processed document runs the
  /// real IE system (NER → relation classification) instead of replaying
  /// the outcome cache — byte-identical verdicts (Process is
  /// deterministic; `outcomes` stays required for pool statistics and the
  /// Perfect oracle) but real per-document CPU, which is what the
  /// speculative executor parallelizes. See bench/bench_extract.cc.
  const ExtractionSystem* extraction_system = nullptr;
};

/// Precomputes word features for every document of the corpus. With
/// `threads` > 1 documents are featurized in parallel with results
/// identical to the serial pass: each document owns its output slot, its
/// entry accumulation order is per-document, and word features intern
/// nothing.
std::vector<SparseVector> FeaturizePool(const Corpus& corpus,
                                        const Featurizer& featurizer,
                                        size_t threads = 1);

/// Builds the search index over the pool documents: the one place that
/// decides which backend serves retrieval. A document the pool names more
/// than once is indexed once (DistinctPool, like Run()). Returns a
/// finalized CompactIndex, ready to search.
CompactIndex BuildPoolIndex(const Corpus& corpus,
                            const std::vector<DocId>& pool);

class AdaptiveExtractionPipeline {
 public:
  static PipelineResult Run(const SharedContext& context,
                            const PipelineConfig& config);
};

}  // namespace ie
