// The benchmark's workloads and the inputs their runs share. Every
// workload runs the same shape of config set — relations {PH, PC} ×
// rankers {RSVM-IE, BAgg-IE} × two update detectors, SRS sampling,
// otherwise PipelineConfig::Defaults — and differs in access mode,
// extraction (outcome cache or live), executor threads and how the corpus
// is loaded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "extract/extraction_system.h"
#include "pipeline/pipeline.h"
#include "text/featurizer.h"

namespace perfbench {

struct Workload {
  const char* name;
  ie::AccessMode access;
  bool live;               // SharedContext::extraction_system set
  size_t extract_threads;  // PipelineConfig::extract_threads
  std::array<ie::UpdateKind, 2> detectors;
  bool iecp;               // corpus written and loaded through IECP
  /// Corpus size; the pool is its test split (~57%). Smaller corpora make
  /// the 200-document warmup most of the first 10% of the pool, and recall
  /// at 10% then swings with the sample from seed to seed. search_live's
  /// cost grows faster than its pool (updates × candidates), so it runs a
  /// smaller corpus in more passes.
  size_t docs;
  /// The share of --seconds one pass over the configs is given: a run
  /// makes max(1, floor(seconds / pass_seconds)) passes. A fixed figure,
  /// not a measured pace, so which runs an invocation makes — and so
  /// recall_at_10pct — depends on --seed and --seconds only, never on the
  /// host's speed. Sized on a 4-core x86 host so that at --seconds 30
  /// (BENCHMARK.json's run_seconds) the passes take about 30 s: one of
  /// detect_heavy, two of search_live, three of rerank_heavy.
  double pass_seconds;
};

/// Passes over the config set an untraced invocation makes.
size_t PassCount(const Workload& workload, double seconds);

/// The workload named `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// Corpus size of the self-test (--quick).
inline constexpr size_t kQuickDocs = 1500;

struct ConfigCase {
  std::string label;    // e.g. "PH/RSVM-IE/Wind-F"; "...@2" in pass 2
  size_t relation = 0;  // index into World::systems / World::outcomes
  ie::PipelineConfig config;
};

inline constexpr size_t kConfigsPerPass = 8;

/// The workload's eight configs for one pass. Each config of each pass
/// gets its own run seed derived from `seed`, so runs draw independent
/// initial samples; pass 0's seeds do not depend on how many passes run.
std::vector<ConfigCase> ConfigSet(const Workload& workload, uint64_t seed,
                                  size_t pass);

/// Wall seconds of each set-up step; `total` is the whole set-up.
struct SetupTimes {
  double generate = 0, read = 0, train = 0, outcomes = 0, featurize = 0,
         index = 0, total = 0;
};

/// Everything the runs of one workload share.
struct World {
  ie::Corpus corpus;
  std::vector<std::unique_ptr<ie::ExtractionSystem>> systems;  // by relation
  std::vector<ie::ExtractionOutcomes> outcomes;                // by relation
  std::unique_ptr<ie::Featurizer> featurizer;
  std::vector<ie::SparseVector> word_features;
  std::unique_ptr<const ie::SearchIndex> index;
  SetupTimes times;

  const std::vector<ie::DocId>& pool() const { return corpus.splits().test; }
};

/// Builds the inputs from `seed`: the corpus (through an IECP file under
/// `work_dir` when the workload says so), both extractors, their outcome
/// caches, the pool's word features and the pool index.
std::unique_ptr<World> Setup(const Workload& workload, size_t docs,
                             uint64_t seed, const std::string& work_dir);

/// The shared context for one config's relation.
ie::SharedContext ContextFor(const World& world, const Workload& workload,
                             size_t relation);

}  // namespace perfbench
