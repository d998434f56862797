#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "index/compact_index.h"
#include "ranking/document_ranker.h"
#include "ranking/factcrawl.h"
#include "ranking/learned_rankers.h"
#include "ranking/query_learning.h"
#include "test_util.h"

namespace ie {
namespace {

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

std::vector<LabeledExample> TopicalSample(size_t n, uint64_t seed = 1) {
  // Useful docs use features {0..4}, useless {10..14}, shared noise {20}.
  Rng rng(seed);
  std::vector<LabeledExample> sample;
  for (size_t i = 0; i < n; ++i) {
    const bool useful = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    for (int k = 0; k < 3; ++k) {
      const uint32_t base = useful ? 0 : 10;
      entries.emplace_back(base + rng.NextBounded(5), 1.0f);
    }
    entries.emplace_back(20, 0.5f);
    SparseVector v = Vec(std::move(entries));
    v.Normalize();
    sample.push_back({std::move(v), useful ? 1 : -1});
  }
  return sample;
}

// ---- Reference rankers -----------------------------------------------------

TEST(RandomRankerTest, ScoresVaryAndAreDeterministicPerSeed) {
  RandomRanker a(5);
  const SparseVector x = Vec({{0, 1.0f}});
  const double s1 = a.Score(x);
  const double s2 = a.Score(x);
  EXPECT_NE(s1, s2);  // consumes the stream
  RandomRanker b(5);
  EXPECT_EQ(b.Score(x), s1);
}

// ---- Learned rankers --------------------------------------------------------

template <typename Ranker>
void ExpectSeparation(Ranker& ranker) {
  const auto sample = TopicalSample(200);
  ranker.TrainInitial(sample);
  ranker.SnapshotForScoring();
  double pos = 0.0, neg = 0.0;
  size_t pos_n = 0, neg_n = 0;
  for (const auto& ex : sample) {
    if (ex.label > 0) {
      pos += ranker.Score(ex.features);
      ++pos_n;
    } else {
      neg += ranker.Score(ex.features);
      ++neg_n;
    }
  }
  EXPECT_GT(pos / pos_n, neg / neg_n);
}

TEST(RsvmIeRankerTest, SeparatesClasses) {
  RsvmIeRanker ranker;
  ExpectSeparation(ranker);
}

TEST(BaggIeRankerTest, SeparatesClasses) {
  BaggIeRanker ranker;
  ExpectSeparation(ranker);
}

TEST(RsvmIeRankerTest, ScoreUsesSnapshotNotLiveModel) {
  RsvmIeRanker ranker;
  const auto sample = TopicalSample(100);
  ranker.TrainInitial(sample);
  ranker.SnapshotForScoring();
  const SparseVector probe = Vec({{0, 1.0f}});
  const double before = ranker.Score(probe);
  // Observing new documents must not change scores until re-snapshot.
  for (int i = 0; i < 50; ++i) ranker.Observe(probe, true);
  EXPECT_DOUBLE_EQ(ranker.Score(probe), before);
  ranker.SnapshotForScoring();
  EXPECT_NE(ranker.Score(probe), before);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameWeights(const WeightVector& got, const WeightVector& want) {
  const size_t n = std::max(got.dimension(), want.dimension());
  for (uint32_t id = 0; id < n; ++id) {
    ASSERT_TRUE(BitEqual(got.Get(id), want.Get(id))) << "feature " << id;
  }
}

// A clone shares the original's reservoir documents (copy-on-write pools).
// The pools here are small, so the training sample already fills them and
// the clone's 100 Observes replace stored documents. The original must
// stay bit-equal to a twin that was never cloned: its scores, its weights,
// and its next 100 training steps. Those steps draw pairs from the pools
// (RSVM-IE) or, on a stream of mostly useless documents, replay stored
// useful ones (BAgg-IE).
template <typename Ranker, typename Options>
void ExpectCloneIsIndependent(const Options& options) {
  const auto sample = TopicalSample(100);
  Ranker ranker(options);
  Ranker twin(options);
  ranker.TrainInitial(sample);
  twin.TrainInitial(sample);
  std::unique_ptr<DocumentRanker> clone = ranker.Clone();
  const SparseVector probe = Vec({{0, 1.0f}});
  for (int i = 0; i < 100; ++i) clone->Observe(probe, true);
  // The clone's weights diverge from the original's.
  const double cosine =
      WeightVector::Cosine(ranker.ModelWeights(), clone->ModelWeights());
  EXPECT_LT(cosine, 1.0 - 1e-6);
  ExpectSameWeights(ranker.ModelWeights(), twin.ModelWeights());
  ranker.SnapshotForScoring();
  twin.SnapshotForScoring();
  for (const auto& ex : sample) {
    ASSERT_TRUE(BitEqual(ranker.Score(ex.features), twin.Score(ex.features)));
  }
  std::vector<LabeledExample> more;  // one useful document in five
  for (const auto& ex : TopicalSample(200, 7)) {
    if (more.size() == 100) break;
    if (ex.label < 0 || more.size() % 5 == 0) more.push_back(ex);
  }
  for (const auto& ex : more) {
    ranker.Observe(ex.features, ex.label > 0);
    twin.Observe(ex.features, ex.label > 0);
    ExpectSameWeights(ranker.ModelWeights(), twin.ModelWeights());
    if (::testing::Test::HasFatalFailure()) return;
  }
  ranker.SnapshotForScoring();
  twin.SnapshotForScoring();
  for (const auto& ex : more) {
    ASSERT_TRUE(BitEqual(ranker.Score(ex.features), twin.Score(ex.features)));
  }
}

TEST(RsvmIeRankerTest, CloneIsIndependent) {
  RsvmIeOptions options;
  options.rank_svm.pool_capacity = 20;
  ExpectCloneIsIndependent<RsvmIeRanker>(options);
}

TEST(BaggIeRankerTest, CloneIsIndependent) {
  BaggIeOptions options;
  options.bagging.balance_pool_capacity = 8;
  ExpectCloneIsIndependent<BaggIeRanker>(options);
}

TEST(RsvmIeRankerTest, InTrainingFeatureSelectionKeepsModelSparse) {
  RsvmIeRanker ranker;
  ranker.TrainInitial(TopicalSample(400));
  // 11 discriminative features exist; the model must not blow up beyond
  // the observed feature space.
  EXPECT_LE(ranker.NonZeroFeatureCount(), 21u);
  EXPECT_GE(ranker.NonZeroFeatureCount(), 2u);
}

TEST(BaggIeRankerTest, ScoreIsSumOfMemberSigmoids) {
  BaggIeRanker ranker;
  ranker.TrainInitial(TopicalSample(120));
  ranker.SnapshotForScoring();
  const auto sample = TopicalSample(10, 99);
  for (const auto& ex : sample) {
    const double s = ranker.Score(ex.features);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 3.0);
  }
}

// ---- Query learning -----------------------------------------------------

TEST(QueryLearningTest, SvmMethodFindsDiscriminativeTerms) {
  const Corpus& corpus = test::SharedCorpus();
  // Label by Person-Charge usefulness; positive terms should be courtroom
  // vocabulary, not stopwords.
  const auto& outcomes = test::SharedOutcomes(RelationId::kPersonCharge);
  std::vector<LabeledExample> sample;
  size_t positives = 0;
  for (DocId id = 0; id < corpus.size() && sample.size() < 1500; ++id) {
    const bool useful = outcomes.useful(id);
    if (useful) ++positives;
    if (!useful && sample.size() > 12 * positives) continue;  // balance-ish
    sample.push_back({test::SharedWordFeatures()[id], useful ? 1 : -1});
  }
  ASSERT_GT(positives, 5u);
  const auto queries = LearnQueries(sample, corpus.vocab(),
                                    QueryMethod::kSvmWeights, 15);
  ASSERT_FALSE(queries.empty());
  for (const std::string& q : queries) {
    EXPECT_TRUE(IsQueryableTerm(q)) << q;
    EXPECT_NE(q, "the");
    EXPECT_NE(q, "of");
  }
}

TEST(QueryLearningTest, AllMethodsProduceTermsOnSyntheticData) {
  Vocabulary vocab;
  const uint32_t useful_term = vocab.Intern("courtroom");
  const uint32_t common_term = vocab.Intern("the");
  std::vector<LabeledExample> sample;
  for (int i = 0; i < 200; ++i) {
    const bool useful = i % 2 == 0;
    std::vector<SparseVector::Entry> entries = {{common_term, 1.0f}};
    if (useful) entries.emplace_back(useful_term, 1.0f);
    sample.push_back({Vec(std::move(entries)), useful ? 1 : -1});
  }
  for (QueryMethod method :
       {QueryMethod::kSvmWeights, QueryMethod::kLogOdds,
        QueryMethod::kTfDominance}) {
    const auto queries = LearnQueries(sample, vocab, method, 5);
    ASSERT_FALSE(queries.empty()) << QueryMethodName(method);
    EXPECT_EQ(queries[0], "courtroom") << QueryMethodName(method);
  }
}

TEST(QueryLearningTest, SkipsAttributeFeatures) {
  Vocabulary vocab;
  const uint32_t attr = vocab.Intern("attr:tsunami");
  const uint32_t word = vocab.Intern("tsunami");
  std::vector<LabeledExample> sample;
  for (int i = 0; i < 100; ++i) {
    const bool useful = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    if (useful) {
      entries = {{attr, 1.0f}, {word, 0.8f}};
    } else {
      entries = {{vocab.Intern("filler"), 1.0f}};
    }
    sample.push_back({Vec(std::move(entries)), useful ? 1 : -1});
  }
  for (const auto& q :
       LearnQueries(sample, vocab, QueryMethod::kLogOdds, 5)) {
    EXPECT_EQ(q.find(':'), std::string::npos);
  }
}

TEST(QueryLearningTest, EmptyWithoutBothClasses) {
  Vocabulary vocab;
  std::vector<LabeledExample> sample = {
      {Vec({{vocab.Intern("x"), 1.0f}}), 1}};
  EXPECT_TRUE(
      LearnQueries(sample, vocab, QueryMethod::kLogOdds, 5).empty());
}

// ---- FactCrawl ------------------------------------------------------------

class FactCrawlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Index: docs 0-9 "courtroom trial" (useful), 10-29 "weather" docs.
    for (DocId id = 0; id < 30; ++id) {
      Document doc;
      Sentence s;
      if (id < 10) {
        s.tokens = {vocab_.Intern("courtroom"), vocab_.Intern("trial"),
                    vocab_.Intern("fraud")};
      } else {
        s.tokens = {vocab_.Intern("weather"), vocab_.Intern("sunny"),
                    vocab_.Intern("breeze")};
      }
      doc.sentences.push_back(std::move(s));
      doc.id = id;
      ASSERT_TRUE(index_.Add(doc).ok());
    }
    index_.Finalize();
    // Sample: labeled examples exposing "courtroom" as a useful-doc term.
    for (int i = 0; i < 60; ++i) {
      const bool useful = i % 2 == 0;
      std::vector<SparseVector::Entry> entries;
      entries.emplace_back(
          useful ? vocab_.Intern("courtroom") : vocab_.Intern("weather"),
          1.0f);
      sample_.push_back(
          {SparseVector::FromUnsorted(std::move(entries)), useful ? 1 : -1});
    }
  }

  bool IsUseful(DocId id) const { return id < 10; }

  Vocabulary vocab_;
  CompactIndex index_;
  std::vector<LabeledExample> sample_;
};

TEST_F(FactCrawlTest, LearnsAndScoresUsefulDocsHigher) {
  FactCrawlOptions options;
  options.retrieved_per_query = 20;
  options.eval_docs_per_query = 5;
  FactCrawl fc(options, &index_, &vocab_);
  fc.LearnInitialQueries(sample_, 3);
  ASSERT_GT(fc.NumQueries(), 0u);
  fc.EvaluateQueries([&](DocId id) { return IsUseful(id); });
  fc.RecomputeScores();
  EXPECT_GT(fc.Score(0), fc.Score(15));
  EXPECT_GT(fc.Score(0), 0.0);
}

TEST_F(FactCrawlTest, EvaluateQueriesReturnsConsumedDocs) {
  FactCrawlOptions options;
  options.eval_docs_per_query = 5;
  options.retrieved_per_query = 20;
  FactCrawl fc(options, &index_, &vocab_);
  fc.LearnInitialQueries(sample_, 3);
  const auto consumed =
      fc.EvaluateQueries([&](DocId id) { return IsUseful(id); });
  EXPECT_FALSE(consumed.empty());
  EXPECT_LE(consumed.size(), fc.NumQueries() * 5);
}

TEST_F(FactCrawlTest, ObserveProcessedShiftsQuality) {
  FactCrawlOptions options;
  options.retrieved_per_query = 20;
  options.eval_docs_per_query = 3;
  FactCrawl fc(options, &index_, &vocab_);
  fc.LearnInitialQueries(sample_, 3);
  fc.EvaluateQueries([&](DocId id) { return IsUseful(id); });
  fc.RecomputeScores();
  const double before = fc.Score(0);
  // Feed contradicting evidence: docs retrieved by the courtroom query turn
  // out useless.
  for (DocId id = 0; id < 10; ++id) fc.ObserveProcessed(id, false);
  fc.RecomputeScores();
  EXPECT_LT(fc.Score(0), before);
}

TEST_F(FactCrawlTest, RefreshQueriesAddsNewTerms) {
  FactCrawlOptions options;
  options.retrieved_per_query = 20;
  options.new_queries_per_refresh = 3;
  FactCrawl fc(options, &index_, &vocab_);
  fc.LearnInitialQueries(sample_, 3);
  const size_t before = fc.NumQueries();
  // New labeled evidence exposing "trial" and "fraud".
  std::vector<LabeledExample> labeled;
  for (int i = 0; i < 40; ++i) {
    const bool useful = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    entries.emplace_back(
        useful ? vocab_.Intern("fraud") : vocab_.Intern("breeze"), 1.0f);
    labeled.push_back(
        {SparseVector::FromUnsorted(std::move(entries)), useful ? 1 : -1});
  }
  fc.RefreshQueries(labeled, 9);
  EXPECT_GT(fc.NumQueries(), before);
}

TEST_F(FactCrawlTest, UnretrievedDocScoresZero) {
  FactCrawlOptions options;
  options.retrieved_per_query = 5;
  FactCrawl fc(options, &index_, &vocab_);
  fc.LearnInitialQueries(sample_, 3);
  fc.EvaluateQueries([&](DocId id) { return IsUseful(id); });
  fc.RecomputeScores();
  EXPECT_DOUBLE_EQ(fc.Score(9999), 0.0);
}

}  // namespace
}  // namespace ie
