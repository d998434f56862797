// Direct tests of the re-rank frontier (pipeline/rerank_engine.h): heap
// order, the insertion-slot tie-break, Requeue, candidate eligibility,
// parallel scoring and the score override — on a fixed-score ranker, so
// every expected order can be written down by hand.
#include "pipeline/rerank_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"

namespace ie {
namespace {

// Scores document d as scores[d]. Each test document's feature vector is
// the single entry (d, 1), so Score() reads the document id back from it.
class FixedScoreRanker : public DocumentRanker {
 public:
  explicit FixedScoreRanker(std::vector<double> scores)
      : scores_(std::move(scores)) {}

  void TrainInitial(const std::vector<LabeledExample>&) override {}
  void Observe(const SparseVector&, bool) override {}
  void SnapshotForScoring() override {}
  double Score(const SparseVector& x) const override {
    return scores_[x.id(0)];
  }
  WeightVector ModelWeights() const override { return {}; }
  std::unique_ptr<DocumentRanker> Clone() const override {
    return std::make_unique<FixedScoreRanker>(*this);
  }
  std::string name() const override { return "fixed"; }

  void set_score(DocId doc, double score) { scores_[doc] = score; }

 private:
  std::vector<double> scores_;
};

std::vector<SparseVector> IdFeatures(size_t n) {
  std::vector<SparseVector> features;
  features.reserve(n);
  for (size_t d = 0; d < n; ++d) {
    features.push_back(
        SparseVector::FromUnsorted({{static_cast<uint32_t>(d), 1.0f}}));
  }
  return features;
}

std::vector<DocId> PopAll(RerankEngine& engine) {
  std::vector<DocId> order;
  DocId doc = 0;
  while (engine.PopNext(&doc)) order.push_back(doc);
  return order;
}

TEST(RerankEngineTest, PopsByDescendingScoreThenInsertionOrder) {
  // Docs 6 and 7 differ as doubles but not as floats: the frontier
  // compares the float scores, so they tie and pop in insertion order.
  FixedScoreRanker ranker({0.5, 2.0, 0.5, 1.0, 2.0, 0.5, 0.25 + 1e-12, 0.25});
  const std::vector<SparseVector> features = IdFeatures(8);
  RerankEngine engine(&ranker, &features, RerankOptions{});
  for (const DocId doc : {7u, 5u, 4u, 3u, 2u, 6u, 1u, 0u}) {
    engine.AddCandidate(doc);
  }
  EXPECT_EQ(engine.pending(), 8u);
  engine.Rerank();
  EXPECT_EQ(PopAll(engine), (std::vector<DocId>{4, 1, 3, 5, 2, 0, 7, 6}));
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().full_rescores, 1u);
}

TEST(RerankEngineTest, RequeueRestoresOriginalTieBreakSlot) {
  FixedScoreRanker ranker(std::vector<double>(5, 1.0));
  const std::vector<SparseVector> features = IdFeatures(5);
  RerankEngine engine(&ranker, &features, RerankOptions{});
  for (DocId doc = 0; doc < 5; ++doc) engine.AddCandidate(doc);
  engine.Rerank();
  DocId doc = 0;
  for (const DocId expected : {0u, 1u, 2u}) {
    ASSERT_TRUE(engine.PopNext(&doc));
    EXPECT_EQ(doc, expected);
  }
  // Requeued in reverse, yet both return to their original slots ahead of
  // the never-popped docs 3 and 4 — with and without a re-rank in between.
  engine.Requeue(1);
  engine.Requeue(0);
  EXPECT_EQ(engine.pending(), 4u);
  ASSERT_TRUE(engine.PopNext(&doc));
  EXPECT_EQ(doc, 0u);
  engine.Requeue(0);
  engine.Rerank();
  EXPECT_EQ(PopAll(engine), (std::vector<DocId>{0, 1, 3, 4}));
}

TEST(RerankEngineTest, RequeueKeepsLastScoreUntilNextRerank) {
  FixedScoreRanker ranker({3.0, 2.0, 1.0});
  const std::vector<SparseVector> features = IdFeatures(3);
  RerankEngine engine(&ranker, &features, RerankOptions{});
  for (DocId doc = 0; doc < 3; ++doc) engine.AddCandidate(doc);
  engine.Rerank();
  DocId doc = 0;
  ASSERT_TRUE(engine.PopNext(&doc));
  EXPECT_EQ(doc, 0u);
  ranker.set_score(0, 0.0);  // the model moves, but no re-rank yet
  engine.Requeue(0);
  ASSERT_TRUE(engine.PopNext(&doc));
  EXPECT_EQ(doc, 0u);
  engine.Requeue(0);
  engine.Rerank();
  EXPECT_EQ(PopAll(engine), (std::vector<DocId>{1, 2, 0}));
}

TEST(RerankEngineTest, CandidateAddedAfterRerankWaitsForNextRerank) {
  FixedScoreRanker ranker({1.0, 2.0, 100.0, 50.0});
  const std::vector<SparseVector> features = IdFeatures(4);
  RerankEngine engine(&ranker, &features, RerankOptions{});
  engine.AddCandidate(0);
  engine.AddCandidate(1);
  engine.Rerank();
  engine.AddCandidate(2);  // best score of all, but not yet scored
  EXPECT_EQ(engine.pending(), 3u);
  DocId doc = 0;
  ASSERT_TRUE(engine.PopNext(&doc));
  EXPECT_EQ(doc, 1u);
  engine.Rerank();
  engine.AddCandidate(3);
  EXPECT_EQ(PopAll(engine), (std::vector<DocId>{2, 0}));
  EXPECT_EQ(engine.pending(), 1u);
  engine.Rerank();
  EXPECT_EQ(PopAll(engine), (std::vector<DocId>{3}));
}

TEST(RerankEngineTest, ParallelScoringPopsSerialOrder) {
  constexpr size_t kDocs = 1000;
  // 37 distinct scores over 1000 docs: nearly every pop resolves a tie.
  std::vector<double> scores(kDocs);
  for (size_t d = 0; d < kDocs; ++d) {
    scores[d] = static_cast<double>((d * 7919) % 37) / 4.0;
  }
  const std::vector<SparseVector> features = IdFeatures(kDocs);
  std::vector<DocId> insertion(kDocs);
  std::iota(insertion.begin(), insertion.end(), 0u);
  Rng rng(17);
  rng.Shuffle(insertion);

  FixedScoreRanker serial_ranker(scores);
  FixedScoreRanker parallel_ranker(scores);
  RerankOptions parallel_options;
  parallel_options.scoring_threads = 4;
  RerankEngine serial(&serial_ranker, &features, RerankOptions{});
  RerankEngine parallel(&parallel_ranker, &features, parallel_options);
  for (const DocId doc : insertion) {
    serial.AddCandidate(doc);
    parallel.AddCandidate(doc);
  }

  // The reference: a stable sort of the insertion order by float score.
  std::vector<DocId> expected = insertion;
  std::stable_sort(expected.begin(), expected.end(),
                   [&scores](DocId a, DocId b) {
                     return static_cast<float>(scores[a]) >
                            static_cast<float>(scores[b]);
                   });

  // Round 1: consume the first 300 docs.
  serial.Rerank();
  parallel.Rerank();
  std::vector<DocId> serial_order;
  std::vector<DocId> parallel_order;
  DocId doc = 0;
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(serial.PopNext(&doc));
    serial_order.push_back(doc);
    ASSERT_TRUE(parallel.PopNext(&doc));
    parallel_order.push_back(doc);
  }
  EXPECT_EQ(serial_order,
            std::vector<DocId>(expected.begin(), expected.begin() + 300));

  // Round 2: the model moves, then the rest of the pool is re-ranked.
  for (DocId d = 0; d < kDocs; d += 3) {
    serial_ranker.set_score(d, -scores[d]);
    parallel_ranker.set_score(d, -scores[d]);
  }
  serial.Rerank();
  parallel.Rerank();
  for (const DocId d : PopAll(serial)) serial_order.push_back(d);
  for (const DocId d : PopAll(parallel)) parallel_order.push_back(d);
  ASSERT_EQ(serial_order.size(), kDocs);
  EXPECT_EQ(parallel_order, serial_order);
}

TEST(RerankEngineTest, ScoreOverrideReplacesRankerScore) {
  // The ranker prefers high ids; the override prefers low ids.
  FixedScoreRanker ranker({0.0, 1.0, 2.0, 3.0});
  const std::vector<SparseVector> features = IdFeatures(4);
  auto override_score = [](DocId doc) { return -static_cast<double>(doc); };
  RerankEngine with_ranker(&ranker, &features, RerankOptions{},
                           override_score);
  // The Perfect oracle's engine has no ranker at all.
  RerankEngine without_ranker(nullptr, &features, RerankOptions{},
                              override_score);
  for (DocId doc = 0; doc < 4; ++doc) {
    with_ranker.AddCandidate(doc);
    without_ranker.AddCandidate(doc);
  }
  with_ranker.Rerank();
  without_ranker.Rerank();
  const std::vector<DocId> expected = {0, 1, 2, 3};
  EXPECT_EQ(PopAll(with_ranker), expected);
  EXPECT_EQ(PopAll(without_ranker), expected);
}

}  // namespace
}  // namespace ie
