#include "sampling/sampler.h"

#include <gtest/gtest.h>

#include <set>

#include "index/compact_index.h"
#include "sampling/cqs_learning.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace ie {
namespace {

std::vector<DocId> Pool(size_t n) {
  std::vector<DocId> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = static_cast<DocId>(i);
  return pool;
}

// ---- SRS --------------------------------------------------------------

TEST(SrsSamplerTest, SamplesRequestedCountDistinct) {
  SrsSampler sampler;
  Rng rng(1);
  const auto sample = sampler.Sample(Pool(100), 30, &rng);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<DocId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
}

TEST(SrsSamplerTest, CapsAtPoolSize) {
  SrsSampler sampler;
  Rng rng(1);
  EXPECT_EQ(sampler.Sample(Pool(10), 50, &rng).size(), 10u);
}

TEST(SrsSamplerTest, SamplesFromPoolValues) {
  SrsSampler sampler;
  Rng rng(1);
  std::vector<DocId> pool = {7, 13, 21, 42};
  for (DocId id : sampler.Sample(pool, 4, &rng)) {
    EXPECT_TRUE(id == 7 || id == 13 || id == 21 || id == 42);
  }
}

TEST(SrsSamplerTest, DeterministicGivenRngState) {
  SrsSampler sampler;
  Rng a(9), b(9);
  EXPECT_EQ(sampler.Sample(Pool(50), 10, &a),
            sampler.Sample(Pool(50), 10, &b));
}

// ---- CQS --------------------------------------------------------------

class CqsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Docs 0-19 about courts, 20-59 about weather.
    for (DocId id = 0; id < 60; ++id) {
      const std::string text = id < 20
                                   ? "courtroom trial verdict jury."
                                   : "sunny weather breeze calm skies.";
      ASSERT_TRUE(index_.Add(TextToDocument(id, text, vocab_)).ok());
    }
    index_.Finalize();
  }
  Vocabulary vocab_;
  CompactIndex index_;
};

TEST_F(CqsTest, PrefersQueryMatchedDocuments) {
  CqsSampler sampler({"courtroom", "jury"}, &index_, &vocab_,
                     /*batch_per_query=*/5);
  Rng rng(2);
  const auto sample = sampler.Sample(Pool(60), 15, &rng);
  ASSERT_EQ(sample.size(), 15u);
  // All 15 should come from the 20 court docs (queries can satisfy it).
  for (DocId id : sample) EXPECT_LT(id, 20u);
}

TEST_F(CqsTest, FallsBackToRandomWhenQueriesExhausted) {
  CqsSampler sampler({"courtroom"}, &index_, &vocab_, 5);
  Rng rng(3);
  const auto sample = sampler.Sample(Pool(60), 40, &rng);
  EXPECT_EQ(sample.size(), 40u);
  const std::set<DocId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  size_t beyond = 0;
  for (DocId id : sample) beyond += id >= 20;
  EXPECT_GT(beyond, 0u);  // random fill used
}

TEST_F(CqsTest, RespectsPoolMembership) {
  CqsSampler sampler({"courtroom"}, &index_, &vocab_, 5);
  Rng rng(4);
  // Pool excludes the first 10 court docs.
  std::vector<DocId> pool;
  for (DocId id = 10; id < 60; ++id) pool.push_back(id);
  for (DocId id : sampler.Sample(pool, 20, &rng)) EXPECT_GE(id, 10u);
}

TEST_F(CqsTest, UnknownQueryTermsHandled) {
  CqsSampler sampler({"nonexistentzz"}, &index_, &vocab_, 5);
  Rng rng(5);
  EXPECT_EQ(sampler.Sample(Pool(60), 10, &rng).size(), 10u);
}

TEST_F(CqsTest, NoDuplicatesAcrossQueries) {
  // Both queries retrieve the same docs; the sample must stay distinct.
  CqsSampler sampler({"courtroom", "trial", "verdict"}, &index_, &vocab_,
                     10);
  Rng rng(6);
  const auto sample = sampler.Sample(Pool(60), 20, &rng);
  const std::set<DocId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), sample.size());
}

// ---- CQS query-list learning ---------------------------------------------

TEST(CqsLearningTest, LearnsListsFromAuxCorpus) {
  const Corpus& corpus = test::SharedCorpus();
  const auto& outcomes = test::SharedOutcomes(RelationId::kPersonCharge);
  CqsLearningOptions options;
  options.num_lists = 3;
  options.terms_per_list = 10;
  const auto lists = LearnCqsQueryLists(corpus, outcomes,
                                        test::SharedFeaturizer(), options);
  ASSERT_EQ(lists.size(), 3u);
  for (const auto& list : lists) {
    EXPECT_FALSE(list.empty());
    EXPECT_LE(list.size(), 10u);
    for (const std::string& term : list) {
      EXPECT_FALSE(term.empty());
      EXPECT_EQ(term.find(':'), std::string::npos);
    }
  }
  // Lists learned from different shuffles should not all be identical.
  EXPECT_FALSE(lists[0] == lists[1] && lists[1] == lists[2]);
}

}  // namespace
}  // namespace ie
