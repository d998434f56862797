#include "extract/ner.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>

#include "crf_oracle.h"
#include "extract/crf_ner.h"
#include "extract/hmm_ner.h"
#include "extract/memm_ner.h"
#include "extract/sequence_tagger.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace ie {
namespace {

class RuleNerTest : public ::testing::Test {
 protected:
  Document Doc(const std::string& text) {
    return TextToDocument(0, text, vocab_);
  }
  Vocabulary vocab_;
};

// ---- GazetteerNer ---------------------------------------------------------

TEST_F(RuleNerTest, GazetteerFindsSingleToken) {
  GazetteerNer ner(EntityType::kDisease, {"cholera", "malaria"}, &vocab_);
  const auto mentions = ner.Recognize(Doc("an outbreak of cholera struck."));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "cholera");
  EXPECT_EQ(mentions[0].type, EntityType::kDisease);
  EXPECT_EQ(mentions[0].begin, 3u);
  EXPECT_EQ(mentions[0].end, 4u);
}

TEST_F(RuleNerTest, GazetteerLongestMatchWins) {
  GazetteerNer ner(EntityType::kNaturalDisaster,
                   {"storm", "tropical storm"}, &vocab_);
  const auto mentions = ner.Recognize(Doc("a tropical storm formed."));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "tropical storm");
}

TEST_F(RuleNerTest, GazetteerFindsMultipleMentions) {
  GazetteerNer ner(EntityType::kDisease, {"cholera"}, &vocab_);
  const auto mentions =
      ner.Recognize(Doc("cholera here. more cholera there."));
  EXPECT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[1].sentence, 1u);
}

TEST_F(RuleNerTest, GazetteerCoverageDropsEntries) {
  std::vector<std::string> entries;
  for (int i = 0; i < 200; ++i) entries.push_back("term" + std::to_string(i));
  GazetteerNer full(EntityType::kDisease, entries, &vocab_, 1.0);
  GazetteerNer partial(EntityType::kDisease, entries, &vocab_, 0.5, 3);
  EXPECT_EQ(full.DictionarySize(), 200u);
  EXPECT_LT(partial.DictionarySize(), 140u);
  EXPECT_GT(partial.DictionarySize(), 60u);
}

TEST_F(RuleNerTest, GazetteerNoMatchesInUnrelatedText) {
  GazetteerNer ner(EntityType::kDisease, {"cholera"}, &vocab_);
  EXPECT_TRUE(ner.Recognize(Doc("nothing to see here.")).empty());
}

// ---- PatternNer -----------------------------------------------------------

TEST_F(RuleNerTest, PatternMatchesStemSuffix) {
  PatternNer ner({"corporation", "institute"}, &vocab_);
  const auto mentions =
      ner.Recognize(Doc("he joined acme corporation yesterday."));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "acme corporation");
  EXPECT_EQ(mentions[0].type, EntityType::kOrganization);
}

TEST_F(RuleNerTest, PatternRejectsStopwordStems) {
  PatternNer ner({"corporation"}, &vocab_);
  EXPECT_TRUE(ner.Recognize(Doc("the corporation acted.")).empty());
}

TEST_F(RuleNerTest, PatternMatchesUniversityOf) {
  PatternNer ner({"university"}, &vocab_);
  const auto mentions = ner.Recognize(Doc("at the university of lisbon."));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "university of lisbon");
}

TEST_F(RuleNerTest, PatternRejectsDoubleSuffix) {
  PatternNer ner({"corporation", "industries"}, &vocab_);
  // "corporation industries" would match "<word> <suffix>" with a suffix
  // stem; the stop rule rejects it.
  EXPECT_TRUE(
      ner.Recognize(Doc("the corporation industries merged.")).empty());
}

// ---- TemporalNer ------------------------------------------------------------

TEST_F(RuleNerTest, TemporalMatchesMonthYear) {
  TemporalNer ner(&vocab_);
  const auto mentions = ner.Recognize(Doc("it began in march 1994 there."));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "march 1994");
  EXPECT_EQ(mentions[0].type, EntityType::kTemporal);
}

TEST_F(RuleNerTest, TemporalRejectsBareMonthOrOddYear) {
  TemporalNer ner(&vocab_);
  EXPECT_TRUE(ner.Recognize(Doc("in march they left.")).empty());
  EXPECT_TRUE(ner.Recognize(Doc("march 94 was cold.")).empty());
  EXPECT_TRUE(ner.Recognize(Doc("march 99999 invalid.")).empty());
}

// ---- MergeMentions -----------------------------------------------------------

TEST(MergeMentionsTest, DropsContainedSpans) {
  std::vector<EntityMention> a = {
      {0, 2, 3, EntityType::kNaturalDisaster, "storm"}};
  std::vector<EntityMention> b = {
      {0, 1, 3, EntityType::kNaturalDisaster, "tropical storm"}};
  const auto merged = MergeMentions({a, b});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].value, "tropical storm");
}

TEST(MergeMentionsTest, KeepsDisjointSpans) {
  std::vector<EntityMention> a = {{0, 0, 1, EntityType::kPerson, "x"}};
  std::vector<EntityMention> b = {{0, 5, 6, EntityType::kLocation, "y"}};
  EXPECT_EQ(MergeMentions({a, b}).size(), 2u);
}

TEST(MergeMentionsTest, DifferentSentencesNotMerged) {
  std::vector<EntityMention> a = {{0, 0, 2, EntityType::kPerson, "x y"}};
  std::vector<EntityMention> b = {{1, 0, 1, EntityType::kPerson, "x"}};
  EXPECT_EQ(MergeMentions({a, b}).size(), 2u);
}

TEST(MergeMentionsTest, OutputSortedByPosition) {
  std::vector<EntityMention> a = {{1, 4, 5, EntityType::kPerson, "b"},
                                  {0, 2, 3, EntityType::kPerson, "a"}};
  const auto merged = MergeMentions({a});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].sentence, 0u);
  EXPECT_EQ(merged[1].sentence, 1u);
}

// ---- BIO helpers ---------------------------------------------------------

TEST(DecodeBioTest, DecodesSpans) {
  Vocabulary vocab;
  Sentence s{{vocab.Intern("maria"), vocab.Intern("lopez"),
              vocab.Intern("spoke")}};
  const std::vector<uint8_t> labels = {kB, kI, kO};
  const auto mentions = DecodeBio(s, labels, 0, EntityType::kPerson, vocab);
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "maria lopez");
}

TEST(DecodeBioTest, OrphanInsideStartsMention) {
  Vocabulary vocab;
  Sentence s{{vocab.Intern("a"), vocab.Intern("b")}};
  const std::vector<uint8_t> labels = {kO, kI};
  const auto mentions = DecodeBio(s, labels, 0, EntityType::kPerson, vocab);
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].value, "b");
}

TEST(DecodeBioTest, AdjacentMentionsViaBB) {
  Vocabulary vocab;
  Sentence s{{vocab.Intern("a"), vocab.Intern("b")}};
  const std::vector<uint8_t> labels = {kB, kB};
  EXPECT_EQ(
      DecodeBio(s, labels, 0, EntityType::kPerson, vocab).size(), 2u);
}

TEST(CollectTaggedSentencesTest, LabelsMatchAnnotations) {
  const Corpus& corpus = test::SharedCorpus();
  const auto data = CollectTaggedSentences(
      corpus, corpus.splits().train, EntityType::kPerson, 0.1, 5);
  ASSERT_FALSE(data.empty());
  size_t b_labels = 0;
  for (const TaggedSentence& ts : data) {
    ASSERT_EQ(ts.labels.size(), ts.sentence->size());
    for (uint8_t l : ts.labels) {
      ASSERT_LE(l, kI);
      b_labels += l == kB;
    }
  }
  EXPECT_GT(b_labels, 0u);
}

// ---- Learned taggers ---------------------------------------------------
// Trained the way the production factory trains them: on a dedicated
// relation-dense generated corpus sharing the main corpus vocabulary (the
// shared corpus train split is far too sparse for standalone training);
// evaluated against the shared corpus dev split.

const Corpus& TaggerTrainingCorpus() {
  static const Corpus* corpus = [] {
    GeneratorOptions options = GeneratorOptions::ForExtractorTraining(
        RelationId::kNaturalDisaster, 900, 71);
    options.shared_vocab = test::SharedCorpus().shared_vocab();
    return new Corpus(GenerateCorpus(options));
  }();
  return *corpus;
}

std::vector<TaggedSentence> TaggerTrainingData(EntityType type) {
  const Corpus& corpus = TaggerTrainingCorpus();
  return CollectTaggedSentences(corpus, corpus.splits().train, type, 0.25,
                                7);
}

struct TaggerQuality {
  double precision = 0.0;
  double recall = 0.0;
};

template <typename Ner>
TaggerQuality EvaluateTagger(const Ner& ner, EntityType type) {
  const Corpus& corpus = test::SharedCorpus();
  size_t tp = 0, fp = 0, fn = 0;
  const auto& dev = corpus.splits().dev;
  for (size_t i = 0; i < 300 && i < dev.size(); ++i) {
    const DocId id = dev[i];
    const auto found = ner.Recognize(corpus.doc(id));
    std::vector<const EntityMention*> gold;
    for (const EntityMention& m : corpus.annotations(id).mentions) {
      if (m.type == type) gold.push_back(&m);
    }
    for (const EntityMention& f : found) {
      bool matched = false;
      for (const EntityMention* g : gold) {
        if (g->sentence == f.sentence && g->begin == f.begin &&
            g->end == f.end) {
          matched = true;
          break;
        }
      }
      (matched ? tp : fp) += 1;
    }
    for (const EntityMention* g : gold) {
      bool matched = false;
      for (const EntityMention& f : found) {
        if (g->sentence == f.sentence && g->begin == f.begin &&
            g->end == f.end) {
          matched = true;
          break;
        }
      }
      if (!matched) ++fn;
    }
  }
  TaggerQuality q;
  q.precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  q.recall = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  return q;
}

TEST(HmmNerTest, LearnsPersonRecognition) {
  const Corpus& corpus = test::SharedCorpus();
  HmmNer ner(EntityType::kPerson, &corpus.vocab());
  ner.Train(TaggerTrainingData(EntityType::kPerson));
  ASSERT_TRUE(ner.trained());
  const TaggerQuality q = EvaluateTagger(ner, EntityType::kPerson);
  EXPECT_GT(q.recall, 0.7);
  EXPECT_GT(q.precision, 0.5);
}

TEST(HmmNerTest, UntrainedLabelsEverythingOutside) {
  const Corpus& corpus = test::SharedCorpus();
  HmmNer ner(EntityType::kPerson, &corpus.vocab());
  EXPECT_TRUE(ner.Recognize(corpus.doc(0)).empty());
}

TEST(MemmNerTest, LearnsDisasterRecognition) {
  const Corpus& corpus = test::SharedCorpus();
  MemmNer ner(EntityType::kNaturalDisaster, &corpus.vocab());
  ner.Train(TaggerTrainingData(EntityType::kNaturalDisaster));
  const TaggerQuality q = EvaluateTagger(ner, EntityType::kNaturalDisaster);
  EXPECT_GT(q.recall, 0.6);
  EXPECT_GT(q.precision, 0.5);
}

TEST(CrfLiteNerTest, LearnsLocationRecognition) {
  const Corpus& corpus = test::SharedCorpus();
  CrfLiteNer ner(EntityType::kLocation, &corpus.vocab());
  ner.Train(TaggerTrainingData(EntityType::kLocation));
  const TaggerQuality q = EvaluateTagger(ner, EntityType::kLocation);
  EXPECT_GT(q.recall, 0.7);
  EXPECT_GT(q.precision, 0.6);
}

// Both learned taggers decode through reusable per-thread scratch buffers
// (flat DP tables in CrfLiteNer::Viterbi, the feature vector in
// MemmNer::Label). Pin that reuse never leaks state between sentences: a
// second decoding pass — running with scratch warm from every earlier
// sentence, including longer ones — must reproduce the first pass exactly,
// in both orders.
template <typename Ner>
void ExpectStableTags(const Ner& ner) {
  const Corpus& corpus = test::SharedCorpus();
  const auto& dev = corpus.splits().dev;
  std::vector<std::vector<std::vector<uint8_t>>> first;
  for (size_t i = 0; i < 50 && i < dev.size(); ++i) {
    const Document& doc = corpus.doc(dev[i]);
    auto& tags = first.emplace_back();
    for (const Sentence& sentence : doc.sentences) {
      tags.push_back(ner.LabelSentence(sentence));
    }
  }
  for (size_t i = first.size(); i-- > 0;) {
    const Document& doc = corpus.doc(dev[i]);
    for (size_t s = doc.sentences.size(); s-- > 0;) {
      ASSERT_EQ(ner.LabelSentence(doc.sentences[s]), first[i][s])
          << "doc " << dev[i] << " sentence " << s;
    }
  }
}

TEST(MemmNerTest, ScratchReuseKeepsTagsStable) {
  const Corpus& corpus = test::SharedCorpus();
  MemmNer ner(EntityType::kNaturalDisaster, &corpus.vocab());
  ner.Train(TaggerTrainingData(EntityType::kNaturalDisaster));
  ExpectStableTags(ner);
}

TEST(CrfLiteNerTest, ScratchReuseKeepsTagsStable) {
  const Corpus& corpus = test::SharedCorpus();
  CrfLiteNer ner(EntityType::kLocation, &corpus.vocab());
  ner.Train(TaggerTrainingData(EntityType::kLocation));
  ExpectStableTags(ner);
}

TEST(CrfLiteNerTest, LearnsChargeRecognition) {
  const Corpus& corpus = test::SharedCorpus();
  CrfLiteNer ner(EntityType::kCharge, &corpus.vocab());
  ner.Train(TaggerTrainingData(EntityType::kCharge));
  const TaggerQuality q = EvaluateTagger(ner, EntityType::kCharge);
  EXPECT_GT(q.recall, 0.6);
}

// ---- CrfOracleTest ---------------------------------------------------------
// CrfLiteNer decodes from the tables Train compiles (DESIGN.md §20);
// test::ReferenceCrfLiteNer (tests/crf_oracle.h) hashes every feature into
// dense tables, as the recognizer did before them. Trained on the same data
// with the same seed, the two must label every sentence alike.

/// A relation-dense training corpus for `relation`, built once per binary
/// into the fixture's vocabulary, the way the production factory builds one.
const Corpus& OracleTrainingCorpus(RelationId relation) {
  static auto* cache = new std::map<RelationId, std::unique_ptr<Corpus>>();
  auto it = cache->find(relation);
  if (it == cache->end()) {
    GeneratorOptions options =
        GeneratorOptions::ForExtractorTraining(relation, 600, 71);
    options.shared_vocab = test::SharedCorpus().shared_vocab();
    it = cache
             ->emplace(relation,
                       std::make_unique<Corpus>(GenerateCorpus(options)))
             .first;
  }
  return *it->second;
}

/// Gold sequences for `type` from the training corpus of `relation`.
std::vector<TaggedSentence> OracleTrainingData(RelationId relation,
                                               EntityType type,
                                               uint64_t seed) {
  const Corpus& corpus = OracleTrainingCorpus(relation);
  return CollectTaggedSentences(corpus, corpus.splits().train, type, 0.25,
                                seed);
}

/// Every sentence of `corpus`, over all of its splits.
std::vector<const Sentence*> AllSentences(const Corpus& corpus) {
  std::vector<const Sentence*> sentences;
  const CorpusSplits& splits = corpus.splits();
  for (const auto* split : {&splits.train, &splits.dev, &splits.test}) {
    for (DocId id : *split) {
      for (const Sentence& sentence : corpus.doc(id).sentences) {
        sentences.push_back(&sentence);
      }
    }
  }
  return sentences;
}

/// Expects equal labels on every sentence; returns how many tokens the
/// reference labels as part of an entity, so a caller can tell a trained
/// comparison from an all-O one.
size_t ExpectSameLabels(const SequenceTaggerNer& product,
                        const SequenceTaggerNer& reference,
                        const std::vector<const Sentence*>& sentences) {
  size_t mismatches = 0;
  size_t entity_tokens = 0;
  for (const Sentence* sentence : sentences) {
    const std::vector<uint8_t> expected = reference.LabelSentence(*sentence);
    if (product.LabelSentence(*sentence) != expected) ++mismatches;
    for (uint8_t label : expected) entity_tokens += label != kO;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << sentences.size() << " sentences";
  return entity_tokens;
}

struct OracleTagger {
  EntityType type;
  RelationId corpus;
  uint64_t seed;
};

// The four recognizers the PH and PC extraction systems train, plus
// Location, on the fixture corpus's sentences in every split.
TEST(CrfOracleTest, EveryFixtureSentenceMatchesForEachEntityType) {
  const Corpus& fixture = test::SharedCorpus();
  const std::vector<const Sentence*> sentences = AllSentences(fixture);
  for (const OracleTagger& tagger :
       {OracleTagger{EntityType::kPerson, RelationId::kPersonCareer, 1},
        OracleTagger{EntityType::kCareer, RelationId::kPersonCareer, 3},
        OracleTagger{EntityType::kPerson, RelationId::kPersonCharge, 1},
        OracleTagger{EntityType::kCharge, RelationId::kPersonCharge, 3},
        OracleTagger{EntityType::kLocation, RelationId::kNaturalDisaster,
                     3}}) {
    SCOPED_TRACE(std::string(EntityTypeName(tagger.type)) + " from " +
                 GetRelation(tagger.corpus).code);
    const auto data =
        OracleTrainingData(tagger.corpus, tagger.type, tagger.seed);
    CrfLiteNer product(tagger.type, &fixture.vocab());
    test::ReferenceCrfLiteNer reference(tagger.type, &fixture.vocab());
    product.Train(data, 11);
    reference.Train(data, 11);
    EXPECT_GT(ExpectSameLabels(product, reference, sentences), 0u);
  }
}

TEST(CrfOracleTest, UntrainedRecognizerMatches) {
  const Corpus& fixture = test::SharedCorpus();
  const CrfLiteNer product(EntityType::kPerson, &fixture.vocab());
  const test::ReferenceCrfLiteNer reference(EntityType::kPerson,
                                            &fixture.vocab());
  ExpectSameLabels(product, reference, AllSentences(fixture));
}

// A second Train continues from the compiled weights, as the dense
// recognizer continues from its tables.
TEST(CrfOracleTest, SecondTrainMatches) {
  const Corpus& fixture = test::SharedCorpus();
  const std::vector<const Sentence*> sentences = AllSentences(fixture);
  CrfLiteNer product(EntityType::kPerson, &fixture.vocab());
  test::ReferenceCrfLiteNer reference(EntityType::kPerson, &fixture.vocab());
  const auto first = OracleTrainingData(RelationId::kPersonCareer,
                                        EntityType::kPerson, 1);
  product.Train(first, 11);
  reference.Train(first, 11);
  EXPECT_GT(ExpectSameLabels(product, reference, sentences), 0u);
  const auto second = OracleTrainingData(RelationId::kPersonCharge,
                                         EntityType::kPerson, 5);
  product.Train(second, 13);
  reference.Train(second, 13);
  EXPECT_GT(ExpectSameLabels(product, reference, sentences), 0u);
}

// 4 bits leave fewer slots than one 64-bit word, so every feature shares a
// slot with many others; 6 and 7 bits fill one and two words exactly.
TEST(CrfOracleTest, NarrowAndDefaultHashWidthsMatch) {
  const Corpus& fixture = test::SharedCorpus();
  const std::vector<const Sentence*> sentences = AllSentences(fixture);
  const auto data = OracleTrainingData(RelationId::kPersonCharge,
                                       EntityType::kCharge, 3);
  for (uint32_t bits : {4u, 6u, 7u, 18u}) {
    SCOPED_TRACE(bits);
    const CrfOptions options{bits, 5};
    CrfLiteNer product(EntityType::kCharge, &fixture.vocab(), options);
    test::ReferenceCrfLiteNer reference(EntityType::kCharge,
                                        &fixture.vocab(), options);
    product.Train(data, 11);
    reference.Train(data, 11);
    ExpectSameLabels(product, reference, sentences);
  }
}

// Tokens interned after Train have no row: their token features read the
// hashed slots. A private vocabulary makes those tokens certain.
TEST(CrfOracleTest, TokensInternedAfterTrainMatch) {
  auto vocab = std::make_shared<Vocabulary>();
  GeneratorOptions options =
      GeneratorOptions::ForExtractorTraining(RelationId::kPersonCareer, 300, 5);
  options.shared_vocab = vocab;
  const Corpus trained_on = GenerateCorpus(options);
  const auto data = CollectTaggedSentences(
      trained_on, trained_on.splits().train, EntityType::kPerson, 0.25, 1);
  std::vector<std::unique_ptr<CrfLiteNer>> products;
  std::vector<std::unique_ptr<test::ReferenceCrfLiteNer>> references;
  for (uint32_t bits : {4u, 12u, 18u}) {
    const CrfOptions crf{bits, 5};
    products.push_back(
        std::make_unique<CrfLiteNer>(EntityType::kPerson, vocab.get(), crf));
    references.push_back(std::make_unique<test::ReferenceCrfLiteNer>(
        EntityType::kPerson, vocab.get(), crf));
    products.back()->Train(data, 11);
    references.back()->Train(data, 11);
  }
  const uint32_t trained_size = static_cast<uint32_t>(vocab->size());

  // A later relation's corpus interns new tokens into the same vocabulary.
  GeneratorOptions later =
      GeneratorOptions::ForExtractorTraining(RelationId::kDiseaseOutbreak,
                                             200, 9);
  later.shared_vocab = vocab;
  const Corpus later_corpus = GenerateCorpus(later);
  std::vector<const Sentence*> sentences = AllSentences(later_corpus);
  size_t late_tokens = 0;
  for (const Sentence* sentence : sentences) {
    for (TokenId token : sentence->tokens) late_tokens += token >= trained_size;
  }
  EXPECT_GT(late_tokens, 0u);
  // Ids no vocabulary holds, next to trained ones and at both ends.
  const TokenId known = trained_on.doc(0).sentences[0].tokens[0];
  const std::vector<Sentence> unseen = {
      Sentence{{trained_size + 7u}},
      Sentence{{known, trained_size + 7u, known}},
      Sentence{{0xfffffffeu, known, 0xffffffffu}}};
  for (const Sentence& sentence : unseen) sentences.push_back(&sentence);
  for (const Sentence* sentence : AllSentences(trained_on)) {
    sentences.push_back(sentence);
  }
  for (size_t i = 0; i < products.size(); ++i) {
    ExpectSameLabels(*products[i], *references[i], sentences);
  }
}

// Labeling is const and thread-safe: four threads labeling at once, each
// from a different starting sentence, reproduce the reference labels.
TEST(CrfOracleTest, FourThreadsLabelAlike) {
  const Corpus& fixture = test::SharedCorpus();
  const std::vector<const Sentence*> sentences = AllSentences(fixture);
  const auto data = OracleTrainingData(RelationId::kNaturalDisaster,
                                       EntityType::kLocation, 3);
  CrfLiteNer product(EntityType::kLocation, &fixture.vocab());
  test::ReferenceCrfLiteNer reference(EntityType::kLocation,
                                      &fixture.vocab());
  product.Train(data, 11);
  reference.Train(data, 11);
  std::vector<std::vector<uint8_t>> expected;
  expected.reserve(sentences.size());
  for (const Sentence* sentence : sentences) {
    expected.push_back(reference.LabelSentence(*sentence));
  }
  constexpr size_t kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t start = t * sentences.size() / kThreads;
      for (size_t k = 0; k < sentences.size(); ++k) {
        const size_t i = (start + k) % sentences.size();
        if (product.LabelSentence(*sentences[i]) != expected[i]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace ie
