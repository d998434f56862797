#include "extract/relation_extractor.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/parallel.h"
#include "common/rng.h"
#include "extract/extraction_system.h"
#include "kernel_oracle.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace ie {
namespace {

class CandidateTest : public ::testing::Test {
 protected:
  Document Doc(const std::string& text) {
    return TextToDocument(0, text, vocab_);
  }
  EntityMention Mention(uint32_t sentence, uint32_t begin, uint32_t end,
                        EntityType type, const std::string& value) {
    return {sentence, begin, end, type, value};
  }
  Vocabulary vocab_;
};

TEST_F(CandidateTest, PairsSameSentenceOnly) {
  const Document doc = Doc("cholera struck. in march 1994 it ended.");
  const std::vector<EntityMention> mentions = {
      Mention(0, 0, 1, EntityType::kDisease, "cholera"),
      Mention(1, 1, 3, EntityType::kTemporal, "march 1994")};
  EXPECT_TRUE(EnumerateCandidates(doc, mentions, EntityType::kDisease,
                                  EntityType::kTemporal)
                  .empty());
}

TEST_F(CandidateTest, PairsWithinSentence) {
  const Document doc = Doc("cholera cases surged in march 1994 there.");
  const std::vector<EntityMention> mentions = {
      Mention(0, 0, 1, EntityType::kDisease, "cholera"),
      Mention(0, 4, 6, EntityType::kTemporal, "march 1994")};
  const auto candidates = EnumerateCandidates(
      doc, mentions, EntityType::kDisease, EntityType::kTemporal);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].attr1.value, "cholera");
  EXPECT_EQ(candidates[0].attr2.value, "march 1994");
}

TEST_F(CandidateTest, CrossProductOfMultipleMentions) {
  const Document doc = Doc("a b c d e f g h.");
  const std::vector<EntityMention> mentions = {
      Mention(0, 0, 1, EntityType::kPerson, "a"),
      Mention(0, 2, 3, EntityType::kPerson, "c"),
      Mention(0, 4, 5, EntityType::kCareer, "e"),
      Mention(0, 6, 7, EntityType::kCareer, "g")};
  EXPECT_EQ(EnumerateCandidates(doc, mentions, EntityType::kPerson,
                                EntityType::kCareer)
                .size(),
            4u);
}

TEST_F(CandidateTest, SameSpanNotPairedWithItself) {
  const Document doc = Doc("alpha beta.");
  const std::vector<EntityMention> mentions = {
      Mention(0, 0, 1, EntityType::kPerson, "alpha")};
  EXPECT_TRUE(EnumerateCandidates(doc, mentions, EntityType::kPerson,
                                  EntityType::kPerson)
                  .empty());
}

TEST_F(CandidateTest, DistanceExtractorThresholds) {
  const Document doc = Doc("cholera w w w w in march 1994.");
  const std::vector<EntityMention> mentions = {
      Mention(0, 0, 1, EntityType::kDisease, "cholera"),
      Mention(0, 6, 8, EntityType::kTemporal, "march 1994")};
  const auto candidates = EnumerateCandidates(
      doc, mentions, EntityType::kDisease, EntityType::kTemporal);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_FALSE(DistanceRelationExtractor(4).Accept(candidates[0]));
  EXPECT_TRUE(DistanceRelationExtractor(5).Accept(candidates[0]));
}

TEST_F(CandidateTest, LabelCandidatesAgainstGold) {
  const Document doc = Doc("maria lopez joined acme corporation now.");
  const std::vector<EntityMention> mentions = {
      Mention(0, 0, 2, EntityType::kPerson, "maria lopez"),
      Mention(0, 3, 5, EntityType::kOrganization, "acme corporation")};
  const auto candidates = EnumerateCandidates(
      doc, mentions, EntityType::kPerson, EntityType::kOrganization);
  ASSERT_EQ(candidates.size(), 1u);

  DocAnnotations with_gold;
  with_gold.tuples.push_back({RelationId::kPersonOrganization, "maria lopez",
                              "acme corporation", 0});
  EXPECT_EQ(LabelCandidates(candidates, with_gold,
                            RelationId::kPersonOrganization)[0],
            1);
  DocAnnotations without_gold;
  EXPECT_EQ(LabelCandidates(candidates, without_gold,
                            RelationId::kPersonOrganization)[0],
            -1);
  // A tuple in a different sentence does not label this candidate.
  DocAnnotations other_sentence;
  other_sentence.tuples.push_back({RelationId::kPersonOrganization,
                                   "maria lopez", "acme corporation", 3});
  EXPECT_EQ(LabelCandidates(candidates, other_sentence,
                            RelationId::kPersonOrganization)[0],
            -1);
}

// ---- Subsequence kernel -----------------------------------------------------

class SubseqKernelTest : public ::testing::Test {
 protected:
  std::vector<TokenId> Seq(const std::string& words) {
    std::vector<TokenId> ids;
    for (const auto& w : TokenizeWords(words)) ids.push_back(vocab_.Intern(w));
    return ids;
  }
  Vocabulary vocab_;
  SubsequenceKernelRelationExtractor extractor_;
};

TEST_F(SubseqKernelTest, NormalizedSelfSimilarityIsOne) {
  EXPECT_NEAR(extractor_.NormalizedKernel(Seq("was charged with fraud"),
                                          Seq("was charged with fraud")),
              1.0, 1e-9);
}

TEST_F(SubseqKernelTest, SymmetricAndBounded) {
  const auto a = Seq("was charged with serious fraud");
  const auto b = Seq("was indicted for fraud");
  const double kab = extractor_.NormalizedKernel(a, b);
  EXPECT_NEAR(kab, extractor_.NormalizedKernel(b, a), 1e-12);
  EXPECT_GE(kab, 0.0);
  EXPECT_LE(kab, 1.0 + 1e-9);
}

TEST_F(SubseqKernelTest, SharedSubsequencesScoreHigher) {
  const auto anchor = Seq("was charged with fraud");
  const double similar =
      extractor_.NormalizedKernel(anchor, Seq("was charged with arson"));
  const double unrelated =
      extractor_.NormalizedKernel(anchor, Seq("visited the lovely museum"));
  EXPECT_GT(similar, unrelated);
}

TEST_F(SubseqKernelTest, GapsAreDiscounted) {
  const auto anchor = Seq("charged with");
  const double adjacent =
      extractor_.NormalizedKernel(anchor, Seq("charged with"));
  const double gapped =
      extractor_.NormalizedKernel(anchor, Seq("charged quietly with"));
  EXPECT_GT(adjacent, gapped);
  EXPECT_GT(gapped, 0.0);
}

TEST_F(SubseqKernelTest, EmptySequenceIsZero) {
  EXPECT_DOUBLE_EQ(extractor_.NormalizedKernel({}, Seq("anything")), 0.0);
}

// ---- Kernel oracle: the flat-scratch DP against the nested-table one -------

/// Bit equality: the kernel must keep the reference's operation order, so
/// its doubles compare with memcmp, not a tolerance.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// A random sequence of length 0–24 over a six-token alphabet, so that
/// tokens repeat and sequences share many subsequences.
std::vector<TokenId> RandomSequence(Rng* rng) {
  std::vector<TokenId> seq(rng->NextBounded(25));
  for (TokenId& t : seq) t = static_cast<TokenId>(rng->NextBounded(6));
  return seq;
}

TEST(KernelOracleTest, RandomSequencesMatchReference) {
  Rng rng(20261018);
  for (size_t p = 1; p <= 3; ++p) {
    for (double decay : {0.3, 0.5, 0.75, 0.9}) {
      SubsequenceKernelRelationExtractor::Options options;
      options.decay = decay;
      options.max_subseq_len = p;
      const SubsequenceKernelRelationExtractor extractor(options);
      for (int trial = 0; trial < 60; ++trial) {
        const std::vector<TokenId> a = RandomSequence(&rng);
        const std::vector<TokenId> b = RandomSequence(&rng);
        const double want = test::ReferenceNormalizedKernel(a, b, decay, p);
        const double got = extractor.NormalizedKernel(a, b);
        ASSERT_TRUE(SameBits(got, want))
            << "p=" << p << " decay=" << decay << " |a|=" << a.size()
            << " |b|=" << b.size() << ": " << got << " vs " << want;
      }
    }
  }
}

// The scratch is sized by the largest pair seen so far and indexed with
// the current pair's row stride: a short pair after a long one reads a
// table full of the long pair's values, and a long pair after a short one
// regrows it. Any cell read before this call wrote it shows here.
TEST(KernelOracleTest, LongShortLongCallsMatchReference) {
  const std::vector<TokenId> long_a = {1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 1, 2,
                                       5, 1, 2, 3, 1, 2, 1, 4, 2, 2, 1, 3};
  const std::vector<TokenId> long_b = {2, 1, 3, 1, 2, 2, 1, 4, 1, 2, 3, 1,
                                       2, 1, 5, 2, 1, 3, 2, 1};
  const std::vector<TokenId> short_a = {1, 2};
  const std::vector<TokenId> short_b = {2, 1, 2};
  const SubsequenceKernelRelationExtractor::Options options;
  const SubsequenceKernelRelationExtractor extractor(options);
  const std::vector<std::pair<const std::vector<TokenId>*,
                              const std::vector<TokenId>*>>
      calls = {{&long_a, &long_b},  {&short_a, &short_b},
               {&long_b, &long_a},  {&short_b, &long_a},
               {&long_a, &short_a}, {&long_a, &long_b}};
  for (const auto& [a, b] : calls) {
    const double want = test::ReferenceNormalizedKernel(
        *a, *b, options.decay, options.max_subseq_len);
    EXPECT_TRUE(SameBits(extractor.NormalizedKernel(*a, *b), want))
        << "|a|=" << a->size() << " |b|=" << b->size();
  }
}

// Each thread owns its scratch: concurrent calls over pairs of different
// shapes give the reference's bits (run under TSan by CI).
TEST(KernelOracleTest, ConcurrentCallsMatchReference) {
  Rng rng(7919);
  std::vector<std::pair<std::vector<TokenId>, std::vector<TokenId>>> pairs;
  for (int i = 0; i < 200; ++i) {
    std::vector<TokenId> a = RandomSequence(&rng);
    pairs.emplace_back(std::move(a), RandomSequence(&rng));
  }
  const SubsequenceKernelRelationExtractor::Options options;
  const SubsequenceKernelRelationExtractor extractor(options);
  std::vector<double> got(pairs.size());
  ParallelFor(pairs.size(), 4, [&](size_t i) {
    got[i] = extractor.NormalizedKernel(pairs[i].first, pairs[i].second);
  });
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(SameBits(
        got[i], test::ReferenceNormalizedKernel(pairs[i].first,
                                                pairs[i].second, options.decay,
                                                options.max_subseq_len)))
        << "pair " << i;
  }
}

// Every candidate the fixture's gold mentions form on the train split,
// through the trained PH and PC classifiers: the margin is the reference
// margin bit for bit, so every Accept verdict agrees with it.
TEST(KernelOracleTest, TrainedDecisionsMatchReference) {
  const Corpus& corpus = test::SharedCorpus();
  for (RelationId relation :
       {RelationId::kPersonCharge, RelationId::kPersonCareer}) {
    const RelationSpec& spec = GetRelation(relation);
    const auto* extractor =
        dynamic_cast<const SubsequenceKernelRelationExtractor*>(
            &test::SharedSystem(relation).relation_extractor());
    ASSERT_NE(extractor, nullptr) << spec.code;
    ASSERT_GT(extractor->NumSupportVectors(), 0u) << spec.code;
    size_t candidates = 0;
    size_t accepted = 0;
    for (DocId id : corpus.splits().train) {
      for (const RelationCandidate& candidate :
           EnumerateCandidates(corpus.doc(id), corpus.annotations(id).mentions,
                               spec.attr1, spec.attr2)) {
        const std::vector<TokenId> seq =
            extractor->CandidateSequence(candidate);
        const double want = test::ReferenceDecision(*extractor, seq);
        ASSERT_TRUE(SameBits(extractor->Decision(seq), want))
            << spec.code << " doc " << id;
        const bool accept = extractor->Accept(candidate);
        ASSERT_EQ(accept, want > 0.0) << spec.code << " doc " << id;
        ++candidates;
        accepted += accept ? 1 : 0;
      }
    }
    // Both verdicts occur, so agreement is not vacuous.
    EXPECT_GT(accepted, 0u) << spec.code;
    EXPECT_LT(accepted, candidates) << spec.code;
  }
}

// ---- End-to-end extraction-system quality over every relation -------------

class ExtractionSystemQualityTest
    : public ::testing::TestWithParam<size_t> {};

TEST_P(ExtractionSystemQualityTest, DocumentLevelQuality) {
  const RelationSpec& spec = AllRelations()[GetParam()];
  const ExtractionOutcomes& outcomes = test::SharedOutcomes(spec.id);
  const Corpus& corpus = test::SharedCorpus();

  size_t tp = 0, fp = 0, fn = 0;
  for (DocId id : corpus.splits().test) {
    const bool gold = corpus.annotations(id).HasTupleFor(spec.id);
    const bool predicted = outcomes.useful(id);
    tp += gold && predicted;
    fp += !gold && predicted;
    fn += gold && !predicted;
  }
  if (tp + fn == 0) GTEST_SKIP() << "no gold-useful docs at this scale";
  const double recall = static_cast<double>(tp) / (tp + fn);
  const double precision =
      tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 1.0;
  EXPECT_GT(recall, 0.75) << spec.code;
  EXPECT_GT(precision, 0.6) << spec.code;
}

TEST_P(ExtractionSystemQualityTest, ExtractedTuplesHaveCorrectRelation) {
  const RelationSpec& spec = AllRelations()[GetParam()];
  const ExtractionOutcomes& outcomes = test::SharedOutcomes(spec.id);
  const Corpus& corpus = test::SharedCorpus();
  size_t checked = 0;
  for (DocId id = 0; id < corpus.size() && checked < 50; ++id) {
    for (const ExtractedTuple& t : outcomes.tuples(id)) {
      EXPECT_EQ(t.relation, spec.id);
      EXPECT_FALSE(t.attr1.empty());
      EXPECT_FALSE(t.attr2.empty());
      ++checked;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRelations, ExtractionSystemQualityTest,
                         ::testing::Range<size_t>(0, kNumRelations));

TEST(ExtractionSystemTest, ProcessIsDeterministic) {
  const ExtractionSystem& system =
      test::SharedSystem(RelationId::kPersonCharge);
  const Corpus& corpus = test::SharedCorpus();
  for (DocId id = 0; id < 20; ++id) {
    const auto first = system.Process(corpus.doc(id));
    const auto second = system.Process(corpus.doc(id));
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_TRUE(first[i] == second[i]);
    }
  }
}

TEST(ExtractionOutcomesTest, UsefulMatchesTuplePresence) {
  const ExtractionOutcomes& outcomes =
      test::SharedOutcomes(RelationId::kPersonCareer);
  for (DocId id = 0; id < 200; ++id) {
    EXPECT_EQ(outcomes.useful(id), !outcomes.tuples(id).empty());
  }
}

TEST(ExtractionOutcomesTest, AttributeValuesAreDistinct) {
  const ExtractionOutcomes& outcomes =
      test::SharedOutcomes(RelationId::kPersonCareer);
  const Corpus& corpus = test::SharedCorpus();
  for (DocId id = 0; id < corpus.size(); ++id) {
    if (!outcomes.useful(id)) continue;
    const auto values = outcomes.AttributeValues(id);
    EXPECT_FALSE(values.empty());
    std::set<std::string> unique(values.begin(), values.end());
    EXPECT_EQ(unique.size(), values.size());
    break;
  }
}

TEST(ExtractionOutcomesTest, CountUsefulSums) {
  const ExtractionOutcomes& outcomes =
      test::SharedOutcomes(RelationId::kPersonCareer);
  const Corpus& corpus = test::SharedCorpus();
  size_t manual = 0;
  for (DocId id : corpus.splits().test) manual += outcomes.useful(id);
  EXPECT_EQ(outcomes.CountUseful(corpus.splits().test), manual);
}

}  // namespace
}  // namespace ie
