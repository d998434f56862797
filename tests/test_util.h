// Shared test fixtures: a lazily built, cached small world (corpus +
// trained extractors + outcomes) reused across test suites to keep the
// suite fast while still exercising real end-to-end behaviour.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "corpus/generator.h"
#include "extract/extraction_system.h"
#include "pipeline/pipeline.h"

namespace ie::test {

/// A small but realistic corpus (shared across all tests in a binary).
inline const Corpus& SharedCorpus() {
  static const Corpus* corpus = [] {
    GeneratorOptions options;
    options.num_documents = 3000;
    options.seed = 4242;
    return new Corpus(GenerateCorpus(options));
  }();
  return *corpus;
}

/// Trained extraction system for a relation, cached per binary.
inline const ExtractionSystem& SharedSystem(RelationId relation) {
  static auto* cache =
      new std::map<RelationId, std::unique_ptr<ExtractionSystem>>();
  auto it = cache->find(relation);
  if (it == cache->end()) {
    ExtractorTrainingOptions options;
    options.training_documents = 900;
    it = cache
             ->emplace(relation,
                       TrainExtractionSystem(
                           relation, SharedCorpus().shared_vocab(), options))
             .first;
  }
  return *it->second;
}

/// Cached extraction outcomes over the shared corpus.
inline const ExtractionOutcomes& SharedOutcomes(RelationId relation) {
  static auto* cache = new std::map<RelationId, ExtractionOutcomes>();
  auto it = cache->find(relation);
  if (it == cache->end()) {
    // threads=2 exercises the parallel Compute path (and, under TSan, the
    // thread safety of ExtractionSystem::Process) in every test binary;
    // results are identical to the serial pass.
    it = cache
             ->emplace(relation,
                       ExtractionOutcomes::Compute(SharedSystem(relation),
                                                   SharedCorpus(), 2))
             .first;
  }
  return it->second;
}

/// Featurizer bound to the shared corpus vocabulary.
inline Featurizer& SharedFeaturizer() {
  static auto* featurizer =
      new Featurizer(&const_cast<Corpus&>(SharedCorpus()).vocab());
  return *featurizer;
}

/// Word features for the shared corpus (computed once).
inline const std::vector<SparseVector>& SharedWordFeatures() {
  static const auto* features = new std::vector<SparseVector>(
      FeaturizePool(SharedCorpus(), SharedFeaturizer(), 2));
  return *features;
}

/// Search index over the shared corpus test split (BuildPoolIndex's
/// product backend).
inline const CompactIndex& SharedIndex() {
  static const auto* index = new CompactIndex(
      BuildPoolIndex(SharedCorpus(), SharedCorpus().splits().test));
  return *index;
}

/// Assembled shared (read-only) context over the shared world.
inline ie::SharedContext MakeSharedContext(RelationId relation) {
  ie::SharedContext context;
  context.corpus = &SharedCorpus();
  context.pool = &SharedCorpus().splits().test;
  context.outcomes = &SharedOutcomes(relation);
  context.relation = &GetRelation(relation);
  context.featurizer = &SharedFeaturizer();
  context.word_features = &SharedWordFeatures();
  context.index = &SharedIndex();
  return context;
}

}  // namespace ie::test
