// Synthetic news-corpus generator (NYT Annotated Corpus substitute; see
// DESIGN.md §2). Documents are topical bags of sentences; useful documents
// for each relation carry planted, extractable relation sentences whose
// vocabulary clusters into subtopics of very different prevalence — so a
// small document sample misses rare subtopics (the paper's motivating
// "volcano" example), keyword retrieval has both recall and precision
// limits, and dense relations are scattered across unrelated topics.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "corpus/corpus.h"

namespace ie {

struct GeneratorOptions {
  size_t num_documents = 20000;
  uint64_t seed = 42;

  /// Split fractions mirror the paper (97k / 671k / 1087k of 1.8M docs).
  double train_fraction = 0.054;
  double dev_fraction = 0.373;  // remainder is the test split

  /// Global scale on all relation densities (1.0 = Table 1 targets).
  double density_scale = 1.0;

  /// Per-relation multiplier on the subtopic anchor probability. Used to
  /// build dedicated high-density extractor-training corpora (the paper
  /// uses pre-trained, off-the-shelf extractors).
  std::array<double, kNumRelations> relation_anchor_multiplier = {
      1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

  /// Shared vocabulary for auxiliary corpora (null = create a fresh one).
  std::shared_ptr<Vocabulary> shared_vocab;

  /// Convenience preset: a small corpus heavily anchored to one relation,
  /// for training that relation's extractor.
  static GeneratorOptions ForExtractorTraining(RelationId relation,
                                               size_t num_documents,
                                               uint64_t seed);
};

/// Generates a complete corpus (documents, annotations, splits).
Corpus GenerateCorpus(const GeneratorOptions& options);

/// Document-at-a-time generator: the streaming counterpart of
/// GenerateCorpus for corpora too large to hold in memory. Pull documents
/// with Next() (ids are sequential from 0; each call returns one document
/// and its annotations, which the caller owns and may immediately write to
/// disk or index and drop), then call MakeSplits() once after the last
/// document. For a fixed GeneratorOptions the emitted documents, vocabulary
/// and splits are byte-identical to GenerateCorpus — GenerateCorpus is
/// itself implemented on top of this class.
class StreamingCorpusGenerator {
 public:
  explicit StreamingCorpusGenerator(const GeneratorOptions& options);
  ~StreamingCorpusGenerator();
  StreamingCorpusGenerator(StreamingCorpusGenerator&&) noexcept;
  StreamingCorpusGenerator& operator=(StreamingCorpusGenerator&&) noexcept;

  /// The vocabulary documents are interned against. Grows as documents are
  /// generated; stable once num_generated() == num_documents().
  const std::shared_ptr<Vocabulary>& shared_vocab() const;

  /// Total documents this generator will emit (options.num_documents).
  size_t num_documents() const;
  size_t num_generated() const;

  /// Fills *doc / *ann with the next document. Returns false (leaving the
  /// outputs untouched) once all documents have been generated.
  bool Next(Document* doc, DocAnnotations* ann);

  /// Train/dev/test assignment over the generated ids. Must be called after
  /// the last Next(): it consumes the same rng stream position the batch
  /// path uses, which is what keeps the two paths byte-identical.
  CorpusSplits MakeSplits();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ie
