#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "text/document.h"
#include "text/featurizer.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace ie {
namespace {

// ---- Vocabulary --------------------------------------------------------

TEST(VocabularyTest, InternAssignsSequentialIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Intern("alpha"), 0u);
  EXPECT_EQ(vocab.Intern("beta"), 1u);
  EXPECT_EQ(vocab.Intern("alpha"), 0u);
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, LookupDoesNotIntern) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Lookup("missing"), Vocabulary::kInvalidId);
  EXPECT_EQ(vocab.size(), 0u);
}

TEST(VocabularyTest, TermRoundTrip) {
  Vocabulary vocab;
  const uint32_t id = vocab.Intern("gamma");
  EXPECT_EQ(vocab.Term(id), "gamma");
  EXPECT_TRUE(vocab.Contains("gamma"));
  EXPECT_FALSE(vocab.Contains("delta"));
}

TEST(VocabularyTest, ManyTermsStayStable) {
  Vocabulary vocab;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(vocab.Intern("term" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(vocab.Term(ids[i]), "term" + std::to_string(i));
  }
}

// ---- Tokenizer -----------------------------------------------------------

TEST(TokenizerTest, LowercasesAndSplits) {
  const auto tokens = TokenizeWords("A Tsunami swept HAWAII.");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "tsunami");
  EXPECT_EQ(tokens[3], "hawaii");
}

TEST(TokenizerTest, KeepsInternalApostropheAndHyphen) {
  const auto tokens = TokenizeWords("O'Brien's man-made plan");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "o'brien's");
  EXPECT_EQ(tokens[1], "man-made");
}

TEST(TokenizerTest, DropsPunctuation) {
  const auto tokens = TokenizeWords("well, -- (really?)");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "well");
  EXPECT_EQ(tokens[1], "really");
}

TEST(TokenizerTest, NumbersAreTokens) {
  const auto tokens = TokenizeWords("in march 1994");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[2], "1994");
}

TEST(TokenizerTest, EmptyText) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("  .. !").empty());
}

TEST(SentenceSplitTest, SplitsOnTerminators) {
  const auto sentences =
      SplitSentences("A tsunami hit. Many fled! Why? The end.");
  ASSERT_EQ(sentences.size(), 4u);
  EXPECT_EQ(sentences[0], "A tsunami hit.");
  EXPECT_EQ(sentences[2], " Why?");
}

TEST(SentenceSplitTest, SingleLetterAbbreviationDoesNotSplit) {
  const auto sentences = SplitSentences("The u.s. sent aid. Done.");
  ASSERT_EQ(sentences.size(), 2u);
}

TEST(SentenceSplitTest, TrailingTextWithoutTerminator) {
  const auto sentences = SplitSentences("First. trailing words");
  ASSERT_EQ(sentences.size(), 2u);
  EXPECT_EQ(sentences[1], " trailing words");
}

TEST(TextToDocumentTest, BuildsSentencesOfTokenIds) {
  Vocabulary vocab;
  const Document doc =
      TextToDocument(7, "A tsunami swept Hawaii. People fled.", vocab);
  EXPECT_EQ(doc.id, 7u);
  ASSERT_EQ(doc.sentences.size(), 2u);
  EXPECT_EQ(doc.sentences[0].size(), 4u);
  EXPECT_EQ(vocab.Term(doc.sentences[0].tokens[1]), "tsunami");
  EXPECT_EQ(doc.TokenCount(), 6u);
}

TEST(TextToDocumentTest, SentenceToStringRoundTrip) {
  Vocabulary vocab;
  const Document doc = TextToDocument(0, "a tsunami swept hawaii.", vocab);
  EXPECT_EQ(SentenceToString(doc.sentences[0], vocab),
            "a tsunami swept hawaii");
}

// ---- Featurizer ------------------------------------------------------------

class FeaturizerTest : public ::testing::Test {
 protected:
  Document MakeDoc(const std::string& text) {
    return TextToDocument(0, text, vocab_);
  }
  Vocabulary vocab_;
};

// The one feature format: word weight 1 + ln(tf), ℓ2-normalized.
TEST_F(FeaturizerTest, UnigramsNormalized) {
  Featurizer featurizer(&vocab_);
  const SparseVector v = featurizer.Featurize(MakeDoc("storm storm surge."));
  EXPECT_EQ(v.size(), 2u);
  const double storm = 1.0 + std::log(2.0);
  const double norm = std::sqrt(storm * storm + 1.0);
  EXPECT_FLOAT_EQ(v.Get(vocab_.Lookup("storm")),
                  static_cast<float>(storm / norm));
  EXPECT_FLOAT_EQ(v.Get(vocab_.Lookup("surge")),
                  static_cast<float>(1.0 / norm));
}

TEST_F(FeaturizerTest, AttributeFeatures) {
  Featurizer featurizer(&vocab_);
  const Document doc = MakeDoc("a tsunami swept hawaii.");
  const SparseVector v = featurizer.Featurize(doc, {"tsunami", "hawaii"});
  EXPECT_GT(v.Get(vocab_.Lookup("attr:tsunami")), 0.0f);
  EXPECT_GT(v.Get(vocab_.Lookup("attr:hawaii")), 0.0f);
  // Word features and attribute features coexist, and an attribute
  // feature weighs what a word seen once weighs.
  EXPECT_GT(v.Get(vocab_.Lookup("tsunami")), 0.0f);
  EXPECT_EQ(v.Get(vocab_.Lookup("attr:tsunami")),
            v.Get(vocab_.Lookup("tsunami")));
}

// The per-thread scratch grows to the largest document seen and is reused:
// a long document in between leaves stale slots in all three scratch
// arrays, which must not leak into a later short or empty document.
TEST_F(FeaturizerTest, ScratchReuseAfterLongDocument) {
  Featurizer featurizer(&vocab_);
  const Document short_doc = MakeDoc("storm storm surge hits the coast.");
  std::string long_text;
  for (int i = 0; i < 5000; ++i) {
    long_text += "w" + std::to_string(i) + (i % 20 == 19 ? ". " : " ");
  }
  const Document long_doc = MakeDoc(long_text);
  const std::vector<std::string> attributes = {"storm", "coast", "surge"};

  const SparseVector first = featurizer.Featurize(short_doc);
  const SparseVector long_v = featurizer.Featurize(long_doc, attributes);
  const SparseVector again = featurizer.Featurize(short_doc);
  const SparseVector empty = featurizer.Featurize(Document{});

  EXPECT_EQ(long_v.size(), 5000u + attributes.size());
  ASSERT_EQ(first.size(), 5u);
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again.id(i), first.id(i));
  }
  EXPECT_EQ(std::memcmp(again.values(), first.values(),
                        first.size() * sizeof(float)),
            0);
  EXPECT_TRUE(empty.empty());
}

TEST_F(FeaturizerTest, AttributeFeatureIdStable) {
  Featurizer featurizer(&vocab_);
  EXPECT_EQ(featurizer.AttributeFeatureId("x"),
            featurizer.AttributeFeatureId("x"));
  EXPECT_NE(featurizer.AttributeFeatureId("x"),
            featurizer.AttributeFeatureId("y"));
}

}  // namespace
}  // namespace ie
