#include "extract/extraction_system.h"

#include <algorithm>
#include <unordered_set>

#include "common/parallel.h"
#include "corpus/generator.h"
#include "corpus/lexicon.h"
#include "extract/crf_ner.h"
#include "extract/hmm_ner.h"
#include "extract/memm_ner.h"
#include "extract/sequence_tagger.h"

namespace ie {

std::vector<ExtractedTuple> ExtractionSystem::Process(
    const Document& doc) const {
  std::vector<std::vector<EntityMention>> found;
  found.reserve(recognizers_.size());
  for (const auto& recognizer : recognizers_) {
    found.push_back(recognizer->Recognize(doc));
  }
  const std::vector<EntityMention> mentions =
      MergeMentions(std::move(found));

  std::vector<ExtractedTuple> tuples;
  for (const RelationCandidate& candidate :
       EnumerateCandidates(doc, mentions, spec_.attr1, spec_.attr2)) {
    if (!relation_extractor_->Accept(candidate)) continue;
    ExtractedTuple tuple{spec_.id, candidate.attr1.value,
                         candidate.attr2.value, candidate.sentence_index};
    if (std::find(tuples.begin(), tuples.end(), tuple) == tuples.end()) {
      tuples.push_back(std::move(tuple));
    }
  }
  return tuples;
}

namespace {

/// Candidate cap for the trained relation classifiers.
constexpr size_t kMaxRelationCandidates = 4000;

// Collects RE training candidates from gold mentions, keeping all positives
// and subsampling negatives to roughly 2× the positive count, at most
// kMaxRelationCandidates in all.
void CollectRelationTrainingData(const Corpus& corpus,
                                 const RelationSpec& spec, uint64_t seed,
                                 std::vector<RelationCandidate>* candidates,
                                 std::vector<int>* labels) {
  Rng rng(seed);
  std::vector<RelationCandidate> positives, negatives;
  for (DocId id : corpus.splits().train) {
    const Document& doc = corpus.doc(id);
    const DocAnnotations& ann = corpus.annotations(id);
    std::vector<RelationCandidate> cands =
        EnumerateCandidates(doc, ann.mentions, spec.attr1, spec.attr2);
    const std::vector<int> cand_labels =
        LabelCandidates(cands, ann, spec.id);
    for (size_t i = 0; i < cands.size(); ++i) {
      (cand_labels[i] > 0 ? positives : negatives)
          .push_back(std::move(cands[i]));
    }
  }
  rng.Shuffle(negatives);
  const size_t keep_neg =
      std::min(negatives.size(), 2 * std::max<size_t>(positives.size(), 8));
  negatives.resize(keep_neg);

  candidates->clear();
  labels->clear();
  for (auto& c : positives) {
    candidates->push_back(std::move(c));
    labels->push_back(1);
  }
  for (auto& c : negatives) {
    candidates->push_back(std::move(c));
    labels->push_back(-1);
  }
  if (candidates->size() > kMaxRelationCandidates) {
    // Shuffle jointly, then truncate.
    std::vector<size_t> order(candidates->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    std::vector<RelationCandidate> cc;
    std::vector<int> ll;
    for (size_t i = 0; i < kMaxRelationCandidates; ++i) {
      cc.push_back(std::move((*candidates)[order[i]]));
      ll.push_back((*labels)[order[i]]);
    }
    *candidates = std::move(cc);
    *labels = std::move(ll);
  }
}

std::unique_ptr<SubsequenceKernelRelationExtractor> TrainKernelExtractor(
    const Corpus& corpus, const RelationSpec& spec,
    const ExtractorTrainingOptions& options) {
  std::vector<RelationCandidate> candidates;
  std::vector<int> labels;
  CollectRelationTrainingData(corpus, spec, options.seed + 5, &candidates,
                              &labels);
  auto extractor = std::make_unique<SubsequenceKernelRelationExtractor>();
  extractor->Train(candidates, labels, options.seed + 6);
  return extractor;
}

}  // namespace

std::unique_ptr<ExtractionSystem> TrainExtractionSystem(
    RelationId relation, const std::shared_ptr<Vocabulary>& vocab,
    const ExtractorTrainingOptions& options) {
  const RelationSpec& spec = GetRelation(relation);
  const Lexicon& lex = GetLexicon();

  GeneratorOptions gen = GeneratorOptions::ForExtractorTraining(
      relation, options.training_documents, options.seed);
  gen.shared_vocab = vocab;
  const Corpus training = GenerateCorpus(gen);
  const std::vector<DocId>& train_docs = training.splits().train;

  auto tag_data = [&](EntityType type, double negative_keep,
                      uint64_t seed_offset) {
    return CollectTaggedSentences(training, train_docs, type, negative_keep,
                                  options.seed + seed_offset);
  };

  std::vector<std::unique_ptr<EntityRecognizer>> ners;
  std::unique_ptr<RelationExtractor> re;

  switch (relation) {
    case RelationId::kPersonOrganization: {
      auto person = std::make_unique<HmmNer>(EntityType::kPerson,
                                             vocab.get());
      person->Train(tag_data(EntityType::kPerson, 0.3, 1));
      ners.push_back(std::move(person));
      ners.push_back(
          std::make_unique<PatternNer>(lex.org_suffixes, vocab.get()));
      std::vector<RelationCandidate> candidates;
      std::vector<int> labels;
      CollectRelationTrainingData(training, spec, options.seed + 2,
                                  &candidates, &labels);
      auto svm = std::make_unique<LinearSvmRelationExtractor>();
      svm->Train(candidates, labels, /*epochs=*/6, options.seed + 3);
      re = std::move(svm);
      break;
    }
    case RelationId::kDiseaseOutbreak: {
      ners.push_back(std::make_unique<GazetteerNer>(
          EntityType::kDisease, lex.diseases, vocab.get(),
          /*coverage=*/0.93, options.seed + 1));
      ners.push_back(std::make_unique<TemporalNer>(vocab.get()));
      re = std::make_unique<DistanceRelationExtractor>(/*max_distance=*/4);
      break;
    }
    case RelationId::kNaturalDisaster: {
      auto disaster = std::make_unique<MemmNer>(
          EntityType::kNaturalDisaster, vocab.get());
      disaster->Train(tag_data(EntityType::kNaturalDisaster, 0.25, 1),
                      options.seed + 2);
      ners.push_back(std::move(disaster));
      auto location =
          std::make_unique<CrfLiteNer>(EntityType::kLocation, vocab.get());
      location->Train(tag_data(EntityType::kLocation, 0.25, 3),
                      options.seed + 4);
      ners.push_back(std::move(location));
      re = TrainKernelExtractor(training, spec, options);
      break;
    }
    default: {
      // MD, PC, PH, EW: CRF-lite recognizers for both attributes, plus the
      // subsequence-kernel relation classifier.
      auto ner1 =
          std::make_unique<CrfLiteNer>(spec.attr1, vocab.get());
      ner1->Train(tag_data(spec.attr1, 0.25, 1), options.seed + 2);
      ners.push_back(std::move(ner1));
      auto ner2 =
          std::make_unique<CrfLiteNer>(spec.attr2, vocab.get());
      ner2->Train(tag_data(spec.attr2, 0.25, 3), options.seed + 4);
      ners.push_back(std::move(ner2));
      re = TrainKernelExtractor(training, spec, options);
      break;
    }
  }

  return std::make_unique<ExtractionSystem>(spec, std::move(ners),
                                            std::move(re));
}

std::vector<std::string> TupleAttributeValues(
    const std::vector<ExtractedTuple>& tuples) {
  std::unordered_set<std::string> seen;
  std::vector<std::string> values;
  for (const ExtractedTuple& t : tuples) {
    if (seen.insert(t.attr1).second) values.push_back(t.attr1);
    if (seen.insert(t.attr2).second) values.push_back(t.attr2);
  }
  return values;
}

ExtractionOutcomes ExtractionOutcomes::Compute(const ExtractionSystem& system,
                                               const Corpus& corpus,
                                               size_t threads) {
  ExtractionOutcomes outcomes;
  outcomes.useful_.resize(corpus.size(), 0);
  outcomes.tuples_.resize(corpus.size());
  ParallelFor(corpus.size(), threads, [&](size_t id) {
    outcomes.tuples_[id] = system.Process(corpus.doc(static_cast<DocId>(id)));
    outcomes.useful_[id] = outcomes.tuples_[id].empty() ? 0 : 1;
  });
  return outcomes;
}

std::vector<std::string> ExtractionOutcomes::AttributeValues(DocId id) const {
  return TupleAttributeValues(tuples_[id]);
}

size_t ExtractionOutcomes::CountUseful(const std::vector<DocId>& ids) const {
  size_t n = 0;
  for (DocId id : ids) n += useful_[id];
  return n;
}

}  // namespace ie
