// BM25 retrieval semantics of the SearchIndex contract, checked on both
// the product backend (CompactIndex) and the test oracle
// (index_oracle.h): every case builds both from the same documents and
// runs its assertions once per backend.
#include <gtest/gtest.h>

#include <cmath>

#include "index/compact_index.h"
#include "index_oracle.h"
#include "text/tokenizer.h"

namespace ie {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void Add(DocId id, const std::string& text) {
    const Document doc = TextToDocument(id, text, vocab_);
    ASSERT_TRUE(compact_.Add(doc).ok());
    ASSERT_TRUE(oracle_.Add(doc).ok());
  }
  std::vector<TokenId> Terms(const std::string& words) {
    std::vector<TokenId> ids;
    for (const auto& w : TokenizeWords(words)) ids.push_back(vocab_.Intern(w));
    return ids;
  }
  /// Runs `check` on each backend; finalizes CompactIndex first, so every
  /// Add() must come before the first call.
  template <typename Check>
  void ForEachBackend(Check check) {
    compact_.Finalize();
    {
      SCOPED_TRACE("CompactIndex");
      check(compact_);
    }
    {
      SCOPED_TRACE("oracle");
      check(oracle_);
    }
  }

  Vocabulary vocab_;
  CompactIndex compact_;
  test::InvertedIndex oracle_;
};

TEST_F(IndexTest, EmptyIndexReturnsNothing) {
  ForEachBackend([&](const SearchIndex& index) {
    EXPECT_TRUE(index.Search(Terms("anything"), 10).empty());
  });
}

TEST_F(IndexTest, DocFreqCountsDocuments) {
  Add(0, "storm at sea. storm again.");
  Add(1, "calm sea.");
  ForEachBackend([&](const SearchIndex& index) {
    EXPECT_EQ(index.DocFreq(vocab_.Lookup("storm")), 1u);
    EXPECT_EQ(index.DocFreq(vocab_.Lookup("sea")), 2u);
    EXPECT_EQ(index.DocFreq(999999), 0u);
  });
}

TEST_F(IndexTest, DuplicateAddRejected) {
  Add(0, "a.");
  const Document again = TextToDocument(0, "b.", vocab_);
  EXPECT_TRUE(compact_.Add(again).IsInvalidArgument());
  EXPECT_TRUE(oracle_.Add(again).IsInvalidArgument());
}

TEST_F(IndexTest, SingleTermRetrieval) {
  Add(0, "earthquake in tokyo.");
  Add(1, "election in oslo.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("earthquake"), 10);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].doc, 0u);
    EXPECT_GT(hits[0].score, 0.0f);
  });
}

TEST_F(IndexTest, TermFrequencyBoostsScore) {
  Add(0, "storm storm storm hit the coast today with heavy rain falling.");
  Add(1, "storm was mentioned once in this otherwise unrelated report.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("storm"), 10);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].doc, 0u);
    EXPECT_GT(hits[0].score, hits[1].score);
  });
}

TEST_F(IndexTest, RareTermsScoreHigherThanCommon) {
  for (DocId id = 0; id < 20; ++id) {
    Add(id, "common words fill this entire document body completely.");
  }
  Add(20, "common words plus the rare volcano mention here today now.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto common_hits = index.Search(Terms("common"), 25);
    const auto rare_hits = index.Search(Terms("volcano"), 25);
    ASSERT_FALSE(common_hits.empty());
    ASSERT_EQ(rare_hits.size(), 1u);
    // idf: the rare term contributes a larger score.
    EXPECT_GT(rare_hits[0].score, common_hits[0].score);
  });
}

TEST_F(IndexTest, DisjunctiveMultiTermAccumulates) {
  Add(0, "lava flowed from the volcano.");
  Add(1, "lava only here.");
  Add(2, "volcano only here.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("lava volcano"), 10);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].doc, 0u);  // matches both query terms
  });
}

TEST_F(IndexTest, TopKLimitsResults) {
  for (DocId id = 0; id < 30; ++id) Add(id, "shared token body.");
  ForEachBackend([&](const SearchIndex& index) {
    EXPECT_EQ(index.Search(Terms("shared"), 5).size(), 5u);
    EXPECT_EQ(index.Search(Terms("shared"), 0).size(), 0u);
  });
}

TEST_F(IndexTest, TieBreakByDocIdIsDeterministic) {
  Add(3, "tied token here now.");
  Add(1, "tied token here now.");
  Add(2, "tied token here now.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("tied"), 10);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].doc, 1u);
    EXPECT_EQ(hits[1].doc, 2u);
    EXPECT_EQ(hits[2].doc, 3u);
  });
}

TEST_F(IndexTest, UnknownQueryTermsIgnored) {
  Add(0, "known words here.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.SearchText("known nonexistentzz", vocab_, 5);
    ASSERT_EQ(hits.size(), 1u);
  });
}

TEST_F(IndexTest, SearchTextAllUnknown) {
  Add(0, "text.");
  ForEachBackend([&](const SearchIndex& index) {
    EXPECT_TRUE(index.SearchText("zzz yyy", vocab_, 5).empty());
  });
}

TEST_F(IndexTest, ShorterDocumentWinsAtEqualTf) {
  Add(0, "needle plus many many many other words in a long document body.");
  Add(1, "needle short.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("needle"), 10);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].doc, 1u);  // BM25 length normalization
  });
}

TEST_F(IndexTest, NumDocsAndPostings) {
  Add(0, "a b.");
  Add(1, "a.");
  ForEachBackend([&](const SearchIndex& index) {
    EXPECT_EQ(index.NumDocs(), 2u);
    EXPECT_EQ(index.NumPostings(), 3u);  // (a,0),(b,0),(a,1)
  });
}

TEST_F(IndexTest, DuplicateQueryTermNotDoubleCounted) {
  // Regression: a repeated query token used to re-walk its posting list
  // and double-add its contribution, so {t, t} diverged from {t}.
  Add(0, "storm storm hit the coast with rain.");
  Add(1, "storm was mentioned here once only.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto once = index.Search(Terms("storm"), 10);
    const auto twice = index.Search(Terms("storm storm"), 10);
    ASSERT_EQ(once.size(), 2u);
    ASSERT_EQ(twice.size(), 2u);
    for (size_t i = 0; i < once.size(); ++i) {
      EXPECT_EQ(once[i].doc, twice[i].doc);
      EXPECT_EQ(once[i].score, twice[i].score);  // exact, not approximate
    }
    // Mixed duplicates too: {a, b, a} == {a, b}.
    const auto pair_hits = index.Search(Terms("storm coast"), 10);
    const auto dup_hits = index.Search(Terms("storm coast storm"), 10);
    ASSERT_EQ(pair_hits.size(), dup_hits.size());
    for (size_t i = 0; i < pair_hits.size(); ++i) {
      EXPECT_EQ(pair_hits[i].doc, dup_hits[i].doc);
      EXPECT_EQ(pair_hits[i].score, dup_hits[i].score);
    }
  });
}

TEST_F(IndexTest, KLargerThanNumDocs) {
  Add(0, "alpha beta.");
  Add(1, "alpha gamma.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("alpha"), 1000);
    EXPECT_EQ(hits.size(), 2u);
  });
}

TEST_F(IndexTest, SingleDocCorpusAvgLenPath) {
  // One document: avg_len == len exactly, so the BM25 length term reduces
  // to k1 * 1.0 — the score must be finite and positive, not NaN.
  Add(0, "solo document with a handful of words.");
  ForEachBackend([&](const SearchIndex& index) {
    const auto hits = index.Search(Terms("solo words"), 10);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(std::isfinite(hits[0].score));
    EXPECT_GT(hits[0].score, 0.0f);
  });
}

TEST_F(IndexTest, SearchTextSplitsOnAllWhitespace) {
  Add(0, "alpha beta gamma.");
  ForEachBackend([&](const SearchIndex& index) {
    // Tabs, carriage returns and newlines are separators, not token bytes —
    // a query pasted from a file must not glue terms together.
    const auto hits = index.SearchText("alpha\tbeta\r\ngamma", vocab_, 10);
    ASSERT_EQ(hits.size(), 1u);
    const auto space_hits = index.SearchText("alpha beta gamma", vocab_, 10);
    ASSERT_EQ(space_hits.size(), 1u);
    EXPECT_EQ(hits[0].score, space_hits[0].score);
  });
}

}  // namespace
}  // namespace ie
