// ExtractionSystem: the trained, black-box IE system for one relation
// (entity recognizers + relation classifier), plus a factory that trains
// all seven paper relations' systems on dedicated generated training
// corpora (substituting for the paper's pre-trained off-the-shelf
// toolkits), and an outcome cache that materializes per-document verdicts
// once per corpus — extraction is deterministic, so the pipeline replays
// cached verdicts and charges the relation's simulated per-document cost.
#pragma once

#include <memory>
#include <vector>

#include "corpus/corpus.h"
#include "extract/ner.h"
#include "extract/relation_extractor.h"
#include "extract/tuple.h"

namespace ie {

class ExtractionSystem {
 public:
  ExtractionSystem(const RelationSpec& spec,
                   std::vector<std::unique_ptr<EntityRecognizer>> recognizers,
                   std::unique_ptr<RelationExtractor> relation_extractor)
      : spec_(spec),
        recognizers_(std::move(recognizers)),
        relation_extractor_(std::move(relation_extractor)) {}

  /// Runs the full pipeline on one document: NER, candidate enumeration,
  /// relation classification. Duplicate tuples are collapsed. Pure and
  /// safe to call concurrently for distinct documents (recognizers and the
  /// relation extractor are immutable after training), which is what lets
  /// the speculative extraction executor run it on worker threads.
  std::vector<ExtractedTuple> Process(const Document& doc) const;

  const RelationSpec& spec() const { return spec_; }
  const RelationExtractor& relation_extractor() const {
    return *relation_extractor_;
  }
  size_t num_recognizers() const { return recognizers_.size(); }

 private:
  RelationSpec spec_;
  std::vector<std::unique_ptr<EntityRecognizer>> recognizers_;
  std::unique_ptr<RelationExtractor> relation_extractor_;
};

struct ExtractorTrainingOptions {
  size_t training_documents = 1200;
  uint64_t seed = 97;
};

/// Trains the extraction system for one relation. Training documents are
/// generated into `vocab` so that token ids match the evaluation corpus.
std::unique_ptr<ExtractionSystem> TrainExtractionSystem(
    RelationId relation, const std::shared_ptr<Vocabulary>& vocab,
    const ExtractorTrainingOptions& options = {});

/// Distinct attribute values of a tuple set, in first-appearance order —
/// the ranking models' tuple features. Shared by the outcome cache and the
/// live-extraction path so both derive byte-identical feature vectors.
std::vector<std::string> TupleAttributeValues(
    const std::vector<ExtractedTuple>& tuples);

/// Precomputed per-document extraction outcomes over one corpus.
class ExtractionOutcomes {
 public:
  ExtractionOutcomes() = default;

  /// Runs `system` over every document of `corpus` once. Per-document
  /// extraction is pure, so with `threads` > 1 documents are processed in
  /// parallel (each writing only its own slot) with identical results.
  static ExtractionOutcomes Compute(const ExtractionSystem& system,
                                    const Corpus& corpus,
                                    size_t threads = 1);

  bool useful(DocId id) const { return useful_[id] != 0; }
  const std::vector<ExtractedTuple>& tuples(DocId id) const {
    return tuples_[id];
  }

  /// Distinct attribute values of the tuples extracted from a document
  /// (features for the ranking models).
  std::vector<std::string> AttributeValues(DocId id) const;

  size_t CountUseful(const std::vector<DocId>& ids) const;
  size_t size() const { return useful_.size(); }

 private:
  std::vector<uint8_t> useful_;
  std::vector<std::vector<ExtractedTuple>> tuples_;
};

}  // namespace ie
