#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "learn/bagging.h"
#include "learn/binary_svm.h"
#include "learn/elastic_net_sgd.h"
#include "learn/feature_selection.h"
#include "learn/one_class_svm.h"
#include "learn/rank_svm.h"
#include "learner_oracle.h"

namespace ie {
namespace {

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

// Synthetic linearly separable task: positive docs use features {0,1},
// negative docs use features {2,3}, with shared noise feature 4.
struct SeparableData {
  std::vector<LabeledExample> examples;

  explicit SeparableData(size_t n, uint64_t seed = 1) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const bool positive = i % 2 == 0;
      std::vector<SparseVector::Entry> entries;
      entries.emplace_back(positive ? 0 : 2,
                           0.5f + 0.5f * static_cast<float>(rng.NextDouble()));
      entries.emplace_back(positive ? 1 : 3,
                           0.5f + 0.5f * static_cast<float>(rng.NextDouble()));
      entries.emplace_back(4, static_cast<float>(rng.NextDouble()));
      SparseVector v = Vec(std::move(entries));
      v.Normalize();
      examples.push_back({std::move(v), positive ? 1 : -1});
    }
  }
};

// ---- ElasticNetSgd -------------------------------------------------------

TEST(ElasticNetSgdTest, InitialScoreIsZero) {
  ElasticNetSgd sgd;
  EXPECT_DOUBLE_EQ(sgd.Score(Vec({{0, 1.0f}})), 0.0);
  EXPECT_EQ(sgd.steps(), 0u);
}

TEST(ElasticNetSgdTest, StepMovesScoreTowardLabel) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 1.0});
  const SparseVector x = Vec({{0, 1.0f}});
  EXPECT_TRUE(sgd.Step(x, 1));  // margin 0 < 1: violation
  EXPECT_GT(sgd.Score(x), 0.0);
}

TEST(ElasticNetSgdTest, MarginOscillatesAroundOneOnRepeatedExample) {
  // Pegasos on a single repeated example converges to margin ~1/λ2eff with
  // the hinge active only part of the time: late steps must include some
  // satisfied margins (no gradient).
  ElasticNetSgd sgd({.lambda_all = 0.5, .lambda_l2_share = 1.0});
  const SparseVector x = Vec({{0, 1.0f}});
  for (int i = 0; i < 300; ++i) sgd.Step(x, 1);
  int violations = 0;
  for (int i = 0; i < 100; ++i) violations += sgd.Step(x, 1);
  EXPECT_LT(violations, 100);
  EXPECT_NEAR(sgd.Score(x), 1.0, 1.2);
}

TEST(ElasticNetSgdTest, LearnsSeparableProblem) {
  ElasticNetSgd sgd({.lambda_all = 0.05, .lambda_l2_share = 0.99});
  SeparableData data(400);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (const auto& ex : data.examples) sgd.Step(ex.features, ex.label);
  }
  size_t correct = 0;
  for (const auto& ex : data.examples) {
    const double score = sgd.Score(ex.features);
    correct += (score > 0) == (ex.label > 0);
  }
  EXPECT_GT(static_cast<double>(correct) / data.examples.size(), 0.95);
}

TEST(ElasticNetSgdTest, L1ProducesSparserModelThanL2) {
  // Many irrelevant noise features: the elastic net must zero (many of)
  // them while pure ℓ2 keeps them merely small.
  Rng rng(7);
  std::vector<LabeledExample> data;
  for (int i = 0; i < 600; ++i) {
    const bool positive = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    entries.emplace_back(positive ? 0 : 1, 1.0f);
    for (int k = 0; k < 4; ++k) {
      entries.emplace_back(2 + rng.NextBounded(40),
                           0.3f * static_cast<float>(rng.NextDouble()));
    }
    SparseVector v = Vec(std::move(entries));
    v.Normalize();
    data.push_back({std::move(v), positive ? 1 : -1});
  }
  ElasticNetSgd pure_l2({.lambda_all = 0.05, .lambda_l2_share = 1.0});
  ElasticNetSgd elastic({.lambda_all = 0.05, .lambda_l2_share = 0.2});
  for (const auto& ex : data) {
    pure_l2.Step(ex.features, ex.label);
    elastic.Step(ex.features, ex.label);
  }
  EXPECT_LT(elastic.NonZeroCount(1e-6), pure_l2.NonZeroCount(1e-6));
  // Both still separate the signal features.
  EXPECT_GT(elastic.Score(data[0].features), elastic.Score(data[1].features));
}

TEST(ElasticNetSgdTest, DenseWeightsMatchScores) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 0.9});
  SeparableData data(100, 3);
  for (const auto& ex : data.examples) sgd.Step(ex.features, ex.label);
  const WeightVector w = sgd.DenseWeights();
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(w.Dot(data.examples[i].features),
                sgd.Score(data.examples[i].features), 1e-9);
  }
}

TEST(ElasticNetSgdTest, PairStepPrefersPositive) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 0.99});
  const SparseVector pos = Vec({{0, 1.0f}});
  const SparseVector neg = Vec({{1, 1.0f}});
  for (int i = 0; i < 50; ++i) sgd.PairStep(pos, neg);
  EXPECT_GT(sgd.Score(pos), sgd.Score(neg));
}

TEST(ElasticNetSgdTest, ForcedStepAppliesGradient) {
  ElasticNetSgd sgd;
  const SparseVector x = Vec({{0, 1.0f}});
  sgd.ForcedStep(x, 1.0);
  EXPECT_GT(sgd.Score(x), 0.0);
  const double before = sgd.Score(x);
  sgd.ForcedStep(SparseVector(), 0.0);  // decay-only step
  EXPECT_LT(sgd.Score(x), before);
}

TEST(ElasticNetSgdTest, StepClampKeepsLearningRateAlive) {
  ElasticNetOptions clamped{.lambda_all = 0.1,
                            .lambda_l2_share = 1.0,
                            .step_offset = 2.0,
                            .step_clamp = 100};
  ElasticNetOptions unclamped{.lambda_all = 0.1, .lambda_l2_share = 1.0};
  ElasticNetSgd a(clamped), b(unclamped);
  const SparseVector warm = Vec({{0, 1.0f}});
  for (int i = 0; i < 5000; ++i) {
    a.ForcedStep(warm, 0.0);
    b.ForcedStep(warm, 0.0);
  }
  const SparseVector fresh = Vec({{1, 1.0f}});
  a.ForcedStep(fresh, 1.0);
  b.ForcedStep(fresh, 1.0);
  // The clamped learner still takes meaningful steps late in the run.
  EXPECT_GT(a.Score(fresh), 10.0 * b.Score(fresh));
}

TEST(ElasticNetSgdTest, CommitAllKeepsDenseWeightsBitIdentical) {
  // The rankers commit lazy regularization in place at every scoring
  // snapshot; the commit must not move a single weight bit.
  ElasticNetSgd sgd({.lambda_all = 0.05, .lambda_l2_share = 0.9});
  SeparableData data(200, 17);
  for (const auto& ex : data.examples) sgd.Step(ex.features, ex.label);
  const WeightVector before = sgd.DenseWeights();
  sgd.CommitAll();
  const WeightVector after = sgd.DenseWeights();
  ASSERT_EQ(before.dimension(), after.dimension());
  ASSERT_GT(before.NonZeroCount(), 0u);
  for (uint32_t id = 0; id < before.dimension(); ++id) {
    const double a = before.Get(id);
    const double b = after.Get(id);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << "feature " << id;
  }
}

TEST(ElasticNetSgdTest, CopyIsIndependent) {
  ElasticNetSgd a({.lambda_all = 0.1, .lambda_l2_share = 1.0});
  const SparseVector x = Vec({{0, 1.0f}});
  a.Step(x, 1);
  const double a_score = a.Score(x);
  ElasticNetSgd b = a;
  EXPECT_DOUBLE_EQ(b.Score(x), a_score);
  b.Step(x, 1);
  b.Step(x, 1);
  // Stepping the copy must not disturb the original.
  EXPECT_DOUBLE_EQ(a.Score(x), a_score);
  EXPECT_NE(a.steps(), b.steps());
  EXPECT_NE(b.Score(x), a_score);
}

// A pure-ℓ2 learner, as the Top-K side classifier is (L1Eff() == 0).
constexpr ElasticNetOptions kPureL2 = {.lambda_all = 0.01,
                                       .lambda_l2_share = 1.0,
                                       .step_offset = 2.0,
                                       .step_clamp = 2000};

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Random steps over features [0, dim): each touches two or three features
// with a random-signed gradient, and every fourth step is decay-only.
template <typename StepFn>
void RandomSteps(Rng& rng, uint32_t dim, int steps, StepFn step) {
  for (int i = 0; i < steps; ++i) {
    if (i % 4 == 3) {
      step(SparseVector(), 0.0);
      continue;
    }
    std::vector<SparseVector::Entry> entries;
    const size_t n = 2 + rng.NextBounded(2);
    for (size_t j = 0; j < n; ++j) {
      entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(dim)),
                           0.1f + static_cast<float>(rng.NextDouble()));
    }
    step(Vec(std::move(entries)), rng.NextBool(0.5) ? 1.0 : -1.0);
  }
}

TEST(ElasticNetSgdTest, CurrentWeightMatchesDenseWeightsBitForBit) {
  for (double l2_share : {1.0, 0.9}) {
    ElasticNetSgd sgd({.lambda_all = 0.05, .lambda_l2_share = l2_share});
    Rng rng(23);
    RandomSteps(rng, 30, 200, [&sgd](const SparseVector& x, double g) {
      sgd.ForcedStep(x, g);
    });
    const WeightVector dense = sgd.DenseWeights();
    // Past the stored dimension both read 0.
    for (uint32_t id = 0; id < dense.dimension() + 3; ++id) {
      EXPECT_TRUE(BitEqual(sgd.CurrentWeight(id), dense.Get(id)))
          << "l2 share " << l2_share << ", feature " << id;
    }
  }
}

TEST(ElasticNetSgdTest, OrderKeyIsMinusInfinityForZeroWeights) {
  ElasticNetSgd sgd(kPureL2);
  EXPECT_EQ(sgd.OrderKey(0), -HUGE_VAL);  // nothing stored yet
  sgd.ForcedStep(Vec({{3, 1.0f}}), 1.0);
  EXPECT_TRUE(std::isfinite(sgd.OrderKey(3)));
  EXPECT_EQ(sgd.OrderKey(2), -HUGE_VAL);    // stored, never touched
  EXPECT_EQ(sgd.OrderKey(100), -HUGE_VAL);  // past the dimension
}

// The key of an untouched feature is ln|v| − D[u] with v and u frozen, so
// neither decay-only steps nor steps on other features move it, while the
// weight itself keeps shrinking.
TEST(ElasticNetSgdTest, OrderKeyStaysFixedWhileUntouched) {
  ElasticNetSgd sgd(kPureL2);
  sgd.ForcedStep(Vec({{3, 1.0f}, {5, 0.5f}}), 1.0);
  const double key = sgd.OrderKey(3);
  double weight = sgd.CurrentWeight(3);
  for (int i = 0; i < 50; ++i) {
    if (i % 2 == 0) {
      sgd.ForcedStep(SparseVector(), 0.0);
    } else {
      sgd.ForcedStep(Vec({{5, 1.0f}, {7, 0.25f}}), i % 3 == 0 ? 1.0 : -1.0);
    }
    EXPECT_TRUE(BitEqual(sgd.OrderKey(3), key)) << "step " << i;
    EXPECT_LT(sgd.CurrentWeight(3), weight) << "step " << i;
    weight = sgd.CurrentWeight(3);
  }
  // A gradient in the weight's own direction raises its key.
  sgd.ForcedStep(Vec({{3, 1.0f}}), 1.0);
  EXPECT_GT(sgd.OrderKey(3), key);
}

// Without ℓ1, a key that trails another by more than the order index's
// rounding slack belongs to a strictly smaller weight: the stop rule of
// OrderKeyIndex::TopK rests on this.
TEST(ElasticNetSgdTest, OrderKeyRanksWeightsWithoutL1) {
  ElasticNetSgd sgd(kPureL2);
  Rng rng(31);
  constexpr uint32_t kDim = 40;
  RandomSteps(rng, kDim, 400, [&sgd](const SparseVector& x, double g) {
    sgd.ForcedStep(x, g);
  });
  size_t ordered_pairs = 0;
  for (uint32_t i = 0; i < kDim; ++i) {
    for (uint32_t j = 0; j < kDim; ++j) {
      const double ki = sgd.OrderKey(i);
      const double kj = sgd.OrderKey(j);
      if (ki == -HUGE_VAL || !(kj < ki - 1e-9 * (1.0 + std::fabs(ki)))) {
        continue;
      }
      ++ordered_pairs;
      EXPECT_LT(std::fabs(sgd.CurrentWeight(j)),
                std::fabs(sgd.CurrentWeight(i)))
          << "features " << j << " and " << i;
    }
  }
  EXPECT_GT(ordered_pairs, 100u);
}

TEST(ElasticNetSgdTest, L1EffIsZeroExactlyForPureL2) {
  EXPECT_EQ(ElasticNetSgd(kPureL2).L1Eff(), 0.0);
  EXPECT_EQ(ElasticNetSgd({.lambda_all = 0.0, .lambda_l2_share = 0.5}).L1Eff(),
            0.0);
  EXPECT_GT(ElasticNetSgd({.lambda_all = 0.1, .lambda_l2_share = 0.99}).L1Eff(),
            0.0);
}

// ---- ElasticNetSgd against the reference arithmetic -----------------------

// After an operation the product and the reference (tests/learner_oracle.h,
// one std::exp per weight read) agree bit for bit on every weight, order
// key, the dense snapshot, the non-zero count and the probes' scores.
void ExpectMatchesReference(const ElasticNetSgd& sgd,
                            const test::ReferenceElasticNetSgd& reference,
                            const std::vector<SparseVector>& probes) {
  ASSERT_EQ(sgd.steps(), reference.steps());
  const WeightVector got = sgd.DenseWeights();
  const WeightVector want = reference.DenseWeights();
  ASSERT_EQ(got.dimension(), want.dimension());
  for (uint32_t id = 0; id < want.dimension() + 2; ++id) {
    ASSERT_TRUE(BitEqual(got.Get(id), want.Get(id))) << "dense " << id;
    ASSERT_TRUE(BitEqual(sgd.CurrentWeight(id), reference.CurrentWeight(id)))
        << "weight " << id;
    ASSERT_TRUE(BitEqual(sgd.OrderKey(id), reference.OrderKey(id)))
        << "key " << id;
  }
  ASSERT_EQ(sgd.NonZeroCount(), reference.NonZeroCount());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(BitEqual(sgd.Score(probes[i]), reference.Score(probes[i])))
        << "probe " << i;
  }
}

// A document of 1 to `max_features` random features in [0, dim).
SparseVector RandomDocument(Rng& rng, uint32_t dim, size_t max_features) {
  std::vector<SparseVector::Entry> entries;
  const size_t n = 1 + rng.NextBounded(max_features);
  for (size_t j = 0; j < n; ++j) {
    entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(dim)),
                         0.05f + static_cast<float>(rng.NextDouble()));
  }
  return Vec(std::move(entries));
}

// One random operation on both learners: Step, PairStep, ForcedStep with a
// gradient, a decay-only ForcedStep, or (when `commits`) CommitAll.
void RandomOperation(Rng& rng, bool commits, ElasticNetSgd& sgd,
                     test::ReferenceElasticNetSgd& reference) {
  const double pick = rng.NextDouble();
  const int y = rng.NextBool(0.5) ? 1 : -1;
  if (pick < 0.3) {
    const SparseVector x = RandomDocument(rng, 300, 40);
    ASSERT_EQ(sgd.Step(x, y), reference.Step(x, y));
  } else if (pick < 0.6) {
    const SparseVector pos = RandomDocument(rng, 300, 40);
    const SparseVector neg = RandomDocument(rng, 300, 40);
    ASSERT_EQ(sgd.PairStep(pos, neg), reference.PairStep(pos, neg));
  } else if (pick < 0.8) {
    const SparseVector x = RandomDocument(rng, 300, 40);
    sgd.ForcedStep(x, y);
    reference.ForcedStep(x, y);
  } else if (pick < 0.95 || !commits) {
    sgd.ForcedStep(SparseVector(), 0.0);
    reference.ForcedStep(SparseVector(), 0.0);
  } else {
    sgd.CommitAll();
    reference.CommitAll();
  }
}

// With ℓ1 (weights hit exactly 0 and come back), pure ℓ2 (the Top-K side
// classifier's regime) and a step clamp (the rankers' regime).
constexpr ElasticNetOptions kLockstepOptions[] = {
    {.lambda_all = 0.5, .lambda_l2_share = 0.9},
    {.lambda_all = 0.01, .lambda_l2_share = 1.0},
    {.lambda_all = 0.1,
     .lambda_l2_share = 0.99,
     .step_offset = 2.0,
     .step_clamp = 50},
};

TEST(LearnerOracleTest, RandomInterleavingsMatchReference) {
  for (const ElasticNetOptions& options : kLockstepOptions) {
    SCOPED_TRACE(::testing::Message() << "l2 share " << options.lambda_l2_share
                                      << ", clamp " << options.step_clamp);
    ElasticNetSgd sgd(options);
    test::ReferenceElasticNetSgd reference(options);
    Rng rng(61);
    std::vector<SparseVector> probes;
    for (int i = 0; i < 4; ++i) probes.push_back(RandomDocument(rng, 320, 60));
    for (int op = 0; op < 1500; ++op) {
      RandomOperation(rng, /*commits=*/true, sgd, reference);
      ExpectMatchesReference(sgd, reference, probes);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(sgd.NonZeroCount(), 0u);
  }
}

// A document whose 100 features were each last touched at a different
// step: its Score and gradient steps read more distinct last-touch steps
// than the per-call memo has slots.
TEST(LearnerOracleTest, DocumentWithManyDistinctLastTouchSteps) {
  for (const ElasticNetOptions& options : kLockstepOptions) {
    ElasticNetSgd sgd(options);
    test::ReferenceElasticNetSgd reference(options);
    std::vector<SparseVector::Entry> all;
    for (uint32_t f = 0; f < 100; ++f) {
      const SparseVector x = Vec({{f, 1.0f}});
      const double g = f % 3 == 0 ? -1.0 : 1.0;
      sgd.ForcedStep(x, g);
      reference.ForcedStep(x, g);
      all.emplace_back(f, 0.25f + 0.01f * static_cast<float>(f));
    }
    const SparseVector wide = Vec(std::move(all));
    const SparseVector other = Vec({{3, 1.0f}, {70, 0.5f}, {130, 0.75f}});
    const std::vector<SparseVector> probes = {wide, other};
    ExpectMatchesReference(sgd, reference, probes);
    ASSERT_EQ(sgd.Step(wide, -1), reference.Step(wide, -1));
    ExpectMatchesReference(sgd, reference, probes);
    ASSERT_EQ(sgd.PairStep(other, wide), reference.PairStep(other, wide));
    ExpectMatchesReference(sgd, reference, probes);
    sgd.ForcedStep(wide, 1.0);
    reference.ForcedStep(wide, 1.0);
    ExpectMatchesReference(sgd, reference, probes);
  }
}

// Thousands of steps without a commit: the bulk passes' table spans every
// step since construction.
TEST(LearnerOracleTest, LongUncommittedRunMatchesReference) {
  for (const ElasticNetOptions& options : kLockstepOptions) {
    ElasticNetSgd sgd(options);
    test::ReferenceElasticNetSgd reference(options);
    Rng rng(67);
    const std::vector<SparseVector> probes = {RandomDocument(rng, 300, 80)};
    for (int op = 0; op < 4000; ++op) {
      RandomOperation(rng, /*commits=*/false, sgd, reference);
      ExpectMatchesReference(sgd, reference, probes);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GE(sgd.steps(), 4000u);
    sgd.CommitAll();
    reference.CommitAll();
    ExpectMatchesReference(sgd, reference, probes);
  }
}

// ---- OnlineBinarySvm ------------------------------------------------------

TEST(OnlineBinarySvmTest, LearnsSeparableTask) {
  OnlineBinarySvm svm({.lambda_all = 0.05, .lambda_l2_share = 0.99});
  SeparableData data(400, 11);
  Rng rng(5);
  svm.TrainBatch(data.examples, 4, &rng);
  size_t correct = 0;
  for (const auto& ex : data.examples) {
    correct += svm.Predict(ex.features) == (ex.label > 0);
  }
  EXPECT_GT(static_cast<double>(correct) / data.examples.size(), 0.95);
}

TEST(OnlineBinarySvmTest, ConfidenceIsSigmoidOfMargin) {
  OnlineBinarySvm svm;
  SeparableData data(50, 13);
  Rng rng(5);
  svm.TrainBatch(data.examples, 2, &rng);
  for (size_t i = 0; i < 5; ++i) {
    const double margin = svm.Margin(data.examples[i].features);
    const double conf = svm.Confidence(data.examples[i].features);
    EXPECT_NEAR(conf, 1.0 / (1.0 + std::exp(-margin)), 1e-12);
    EXPECT_GT(conf, 0.0);
    EXPECT_LT(conf, 1.0);
  }
}

TEST(OnlineBinarySvmTest, BiasLearnsSkewedPrior) {
  // All-positive data should push the bias up.
  OnlineBinarySvm svm;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    svm.Update(Vec({{static_cast<uint32_t>(i % 7), 1.0f}}), 1);
  }
  EXPECT_GT(svm.bias(), 0.0);
}

// Update returns true exactly when it applied a gradient; otherwise it
// takes a decay-only step, which moves no order key. The Top-K detector
// re-keys only after a true return.
TEST(OnlineBinarySvmTest, OnlyGradientUpdatesMoveOrderKeys) {
  OnlineBinarySvm svm(kPureL2);
  SeparableData data(300, 19);
  size_t applied = 0;
  size_t skipped = 0;
  for (const auto& ex : data.examples) {
    std::vector<double> before;
    for (uint32_t id = 0; id < 5; ++id) {
      before.push_back(svm.learner().OrderKey(id));
    }
    const size_t steps = svm.steps();
    const bool moved = svm.Update(ex.features, ex.label);
    EXPECT_EQ(svm.steps(), steps + 1);
    size_t changed = 0;
    for (uint32_t id = 0; id < 5; ++id) {
      changed += BitEqual(svm.learner().OrderKey(id), before[id]) ? 0 : 1;
    }
    if (moved) {
      ++applied;
      EXPECT_GT(changed, 0u);
    } else {
      ++skipped;
      EXPECT_EQ(changed, 0u);
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_GT(skipped, 0u);
}

// ---- OnlineRankSvm ---------------------------------------------------------

TEST(OnlineRankSvmTest, RanksUsefulAboveUseless) {
  OnlineRankSvm svm({.sgd = {.lambda_all = 0.1, .lambda_l2_share = 0.99}},
                    3);
  SeparableData data(300, 17);
  for (const auto& ex : data.examples) {
    svm.Observe(ex.features, ex.label > 0);
  }
  svm.TrainPairs(2000);
  double pos_mean = 0.0, neg_mean = 0.0;
  size_t pos_n = 0, neg_n = 0;
  for (const auto& ex : data.examples) {
    if (ex.label > 0) {
      pos_mean += svm.Score(ex.features);
      ++pos_n;
    } else {
      neg_mean += svm.Score(ex.features);
      ++neg_n;
    }
  }
  EXPECT_GT(pos_mean / pos_n, neg_mean / neg_n);
}

TEST(OnlineRankSvmTest, NoTrainingWithoutBothClasses) {
  OnlineRankSvm svm({}, 3);
  svm.Observe(Vec({{0, 1.0f}}), true);
  svm.Observe(Vec({{1, 1.0f}}), true);
  EXPECT_EQ(svm.steps(), 0u);  // no useless docs yet: no pairs possible
  svm.Observe(Vec({{2, 1.0f}}), false);
  EXPECT_GT(svm.steps(), 0u);
}

TEST(OnlineRankSvmTest, ReservoirCapsPoolSize) {
  RankSvmOptions options;
  options.pool_capacity = 10;
  options.steps_per_observation = 0;
  OnlineRankSvm svm(options, 3);
  for (int i = 0; i < 100; ++i) {
    svm.Observe(Vec({{static_cast<uint32_t>(i), 1.0f}}), true);
  }
  EXPECT_EQ(svm.useful_pool_size(), 10u);
}

// ---- BaggingCommittee ------------------------------------------------------

TEST(BaggingCommitteeTest, ScoreBoundedByCommitteeSize) {
  BaggingCommittee committee({.sgd = {}, .committee_size = 3}, 5);
  SeparableData data(60, 19);
  committee.TrainInitial(data.examples);
  for (const auto& ex : data.examples) {
    const double s = committee.Score(ex.features);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 3.0);
  }
}

TEST(BaggingCommitteeTest, SeparatesClassesAfterTraining) {
  BaggingCommittee committee(
      {.sgd = {.lambda_all = 0.05, .lambda_l2_share = 0.99},
       .committee_size = 3,
       .initial_epochs = 6},
      5);
  SeparableData data(300, 23);
  committee.TrainInitial(data.examples);
  double pos = 0.0, neg = 0.0;
  for (const auto& ex : data.examples) {
    (ex.label > 0 ? pos : neg) += committee.Score(ex.features);
  }
  EXPECT_GT(pos, neg);
}

TEST(BaggingCommitteeTest, OnlineObserveImprovesNewPattern) {
  BaggingCommittee committee(
      {.sgd = {.lambda_all = 0.1,
               .lambda_l2_share = 0.99,
               .step_offset = 2.0,
               .step_clamp = 500},
       .committee_size = 3},
      5);
  SeparableData data(200, 29);
  committee.TrainInitial(data.examples);
  // A new positive pattern on unseen features.
  const SparseVector novel = Vec({{40, 0.7f}, {41, 0.7f}});
  const double before = committee.Score(novel);
  for (int i = 0; i < 60; ++i) committee.Observe(novel, true);
  EXPECT_GT(committee.Score(novel), before);
}

TEST(BaggingCommitteeTest, MeanDenseWeightsAveragesMembers) {
  BaggingCommittee committee({.sgd = {}, .committee_size = 2}, 5);
  SeparableData data(100, 31);
  committee.TrainInitial(data.examples);
  const WeightVector mean = committee.MeanDenseWeights();
  const WeightVector w0 = committee.member(0).DenseWeights();
  const WeightVector w1 = committee.member(1).DenseWeights();
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_NEAR(mean.Get(id), 0.5 * (w0.Get(id) + w1.Get(id)), 1e-9);
  }
}

// ---- OneClassSvm -----------------------------------------------------------

TEST(OneClassSvmTest, InlierScoresHigherThanOutlier) {
  OneClassSvm svm({.gamma = 4.0, .lambda = 0.01, .budget = 64});
  Rng rng(3);
  // Training cloud: features {0,1}.
  for (int i = 0; i < 200; ++i) {
    SparseVector v = Vec({{0, 0.6f + 0.1f * (float)rng.NextDouble()},
                          {1, 0.6f + 0.1f * (float)rng.NextDouble()}});
    v.Normalize();
    svm.Observe(v);
  }
  SparseVector inlier = Vec({{0, 0.65f}, {1, 0.65f}});
  inlier.Normalize();
  SparseVector outlier = Vec({{5, 1.0f}});
  EXPECT_GT(svm.Decision(inlier), svm.Decision(outlier));
}

TEST(OneClassSvmTest, BudgetEnforced) {
  OneClassSvm svm({.gamma = 4.0, .lambda = 0.01, .budget = 16});
  for (int i = 0; i < 100; ++i) {
    svm.Observe(Vec({{static_cast<uint32_t>(i), 1.0f}}));
  }
  EXPECT_LE(svm.NumSupportVectors(), 17u);
}

TEST(OneClassSvmTest, EmptyModelDecidesZero) {
  OneClassSvm svm({});
  const SparseVector x = Vec({{2, 1.0f}});
  EXPECT_EQ(svm.Decision(x), 0.0);
  EXPECT_TRUE(svm.IsInlier(x, 0.0));
  EXPECT_FALSE(svm.IsInlier(x, 0.5));
  EXPECT_EQ(svm.NumSupportVectors(), 0u);
}

// IsInlier stops summing once the partial sum reaches the margin; the
// verdict must still be exactly Decision(x) >= margin, at the decision
// itself and one ulp to either side.
TEST(OneClassSvmTest, IsInlierMatchesDecisionAtEveryMargin) {
  OneClassSvm svm({.gamma = 2.0, .lambda = 0.01, .budget = 16});
  Rng rng(37);
  size_t checks = 0;
  for (int i = 0; i < 300; ++i) {
    SparseVector x = Vec({{static_cast<uint32_t>(rng.NextBounded(40)),
                           0.2f + static_cast<float>(rng.NextDouble())},
                          {static_cast<uint32_t>(40 + rng.NextBounded(40)),
                           0.2f + static_cast<float>(rng.NextDouble())}});
    x.Normalize();
    const double d = svm.Decision(x);
    for (double margin : {d, std::nextafter(d, -HUGE_VAL),
                          std::nextafter(d, HUGE_VAL), 0.5 * d, 2.0 * d, 0.0,
                          0.5, 1.0}) {
      EXPECT_EQ(svm.IsInlier(x, margin), d >= margin)
          << "doc " << i << ", margin " << margin;
      ++checks;
    }
    svm.Observe(x);
  }
  EXPECT_EQ(svm.NumSupportVectors(), 16u);  // the budget is full
  EXPECT_EQ(checks, 300u * 8u);
}

// Decision and IsInlier accumulate x's dot products with the support
// vectors afresh on every call, also after IsInlier exits early: a later
// call must not see a trace of an earlier one.
TEST(OneClassSvmTest, CallsLeaveNoScatterBehind) {
  OneClassSvm svm({.gamma = 0.5, .lambda = 0.01, .budget = 8});
  for (uint32_t i = 0; i < 6; ++i) {
    svm.Observe(Vec({{i, 1.0f}, {i + 1, 0.5f}}));
  }
  const SparseVector y = Vec({{1, 0.75f}, {4, 0.25f}});
  const double want = svm.Decision(y);
  for (const SparseVector& x :
       {Vec({{1, 2.0f}, {2, 1.0f}}), Vec({{4, 1.0f}, {900, 3.0f}}),
        Vec({{0, 1.0f}, {1, 1.0f}, {5, 1.0f}})}) {
    svm.Decision(x);
    EXPECT_TRUE(BitEqual(svm.Decision(y), want));
    EXPECT_TRUE(svm.IsInlier(x, 0.0));  // stops before the first term
    EXPECT_TRUE(BitEqual(svm.Decision(y), want));
    svm.IsInlier(x, 1e-3);
    EXPECT_TRUE(BitEqual(svm.Decision(y), want));
  }
}

// A budget of one keeps a single support vector, and an evicted one takes
// its postings with it: once slots have been freed and reused, a document
// that shares features only with evicted support vectors decides bit for
// bit like one that shares none. The narrow kernel makes every document
// a new support vector.
TEST(OneClassSvmTest, EvictedSupportVectorsLeaveNoPostings) {
  OneClassSvm svm({.gamma = 8.0, .lambda = 0.01, .budget = 1});
  for (uint32_t i = 0; i < 20; ++i) {
    svm.Observe(Vec({{2 * i, 1.0f}, {2 * i + 1, 0.5f}}));
    EXPECT_EQ(svm.NumSupportVectors(), 1u);
  }
  // The survivor is one of the last two documents; x shares nothing with
  // either, so sv·x is 0 and f(x) = α·exp(-γ(‖sv‖² + ‖x‖²)).
  const SparseVector x = Vec({{0, 1.0f}, {3, 1.0f}});
  const double alpha_kernel_max = svm.Decision(x);
  EXPECT_GT(alpha_kernel_max, 0.0);
  const SparseVector far = Vec({{900, 1.0f}, {901, 1.0f}});
  EXPECT_TRUE(BitEqual(svm.Decision(far), alpha_kernel_max));
}

// ---- Feature selection ------------------------------------------------------

TEST(TopKFeaturesTest, OrdersByAbsoluteWeight) {
  WeightVector w;
  w.Set(0, 0.1);
  w.Set(1, -2.0);
  w.Set(2, 1.0);
  const auto top = TopKFeatures(w, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 1u);
  EXPECT_DOUBLE_EQ(top[0].weight, 2.0);
  EXPECT_EQ(top[1].id, 2u);
}

TEST(TopKFeaturesTest, FewerThanKReturnsAll) {
  WeightVector w;
  w.Set(3, 1.0);
  EXPECT_EQ(TopKFeatures(w, 10).size(), 1u);
}

TEST(FootruleTest, IdenticalListsHaveZeroDistance) {
  const std::vector<WeightedFeature> list = {{0, 2.0}, {1, 1.0}, {2, 0.5}};
  EXPECT_NEAR(GeneralizedFootrule(list, list), 0.0, 1e-12);
}

TEST(FootruleTest, EmptyListsHaveZeroDistance) {
  EXPECT_DOUBLE_EQ(GeneralizedFootrule({}, {}), 0.0);
}

TEST(FootruleTest, DisjointListsFarApart) {
  const std::vector<WeightedFeature> a = {{0, 1.0}, {1, 1.0}};
  const std::vector<WeightedFeature> b = {{10, 1.0}, {11, 1.0}};
  const std::vector<WeightedFeature> c = {{0, 1.0}, {1, 0.9}};
  EXPECT_GT(GeneralizedFootrule(a, b), GeneralizedFootrule(a, c));
}

TEST(FootruleTest, SwapOfHeavyFeaturesCostsMoreThanLight) {
  const std::vector<WeightedFeature> base = {
      {0, 10.0}, {1, 5.0}, {2, 1.0}, {3, 0.5}};
  std::vector<WeightedFeature> heavy_swap = {
      {1, 10.0}, {0, 5.0}, {2, 1.0}, {3, 0.5}};
  std::vector<WeightedFeature> light_swap = {
      {0, 10.0}, {1, 5.0}, {3, 1.0}, {2, 0.5}};
  EXPECT_GT(GeneralizedFootrule(base, heavy_swap),
            GeneralizedFootrule(base, light_swap));
}

TEST(FootruleTest, Symmetric) {
  const std::vector<WeightedFeature> a = {{0, 3.0}, {1, 1.0}, {5, 0.5}};
  const std::vector<WeightedFeature> b = {{1, 2.0}, {7, 1.5}, {0, 0.5}};
  EXPECT_NEAR(GeneralizedFootrule(a, b), GeneralizedFootrule(b, a), 1e-12);
}

// A reference measures list after list with reused scratch arrays; each
// distance equals GeneralizedFootrule's from a fresh reference, and the
// default reference is the empty list.
TEST(FootruleTest, ReusedReferenceMatchesGeneralizedFootrule) {
  Rng rng(71);
  auto random_list = [&rng]() {
    std::vector<WeightedFeature> list;
    for (size_t i = rng.NextBounded(15); i > 0; --i) {
      list.push_back({static_cast<uint32_t>(rng.NextBounded(20)),
                      0.01 + rng.NextDouble()});
    }
    return list;
  };
  const std::vector<WeightedFeature> a = {{4, 3.0}, {9, 1.0}, {1, 0.5}};
  FootruleReference reference(a);
  FootruleReference empty;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<WeightedFeature> b = random_list();
    EXPECT_TRUE(BitEqual(reference.Distance(b), GeneralizedFootrule(a, b)));
    EXPECT_TRUE(BitEqual(empty.Distance(b), GeneralizedFootrule({}, b)));
  }
  EXPECT_EQ(empty.Distance({}), 0.0);
  EXPECT_EQ(reference.Distance(a), 0.0);
}

TEST(FootruleTest, DuplicateIdsKeepTheirFirstOccurrence) {
  const std::vector<WeightedFeature> dup = {{3, 1.0}, {3, 5.0}, {1, 2.0}};
  const std::vector<WeightedFeature> first = {{3, 1.0}, {1, 2.0}};
  const std::vector<WeightedFeature> other = {{1, 4.0}, {8, 1.0}, {3, 0.5}};
  EXPECT_EQ(GeneralizedFootrule(dup, first), 0.0);
  EXPECT_TRUE(BitEqual(GeneralizedFootrule(dup, other),
                       GeneralizedFootrule(first, other)));
  EXPECT_TRUE(BitEqual(GeneralizedFootrule(other, dup),
                       GeneralizedFootrule(other, first)));
}

// Each list is normalized by its own sum, so scaling a list by a power of
// two (exact in binary) leaves the distance bit-identical.
TEST(FootruleTest, ScalingAListLeavesTheDistance) {
  const std::vector<WeightedFeature> a = {{0, 3.0}, {1, 1.0}, {5, 0.5}};
  const std::vector<WeightedFeature> b = {{1, 2.0}, {7, 1.5}, {0, 0.5}};
  std::vector<WeightedFeature> a4 = a;
  for (WeightedFeature& f : a4) f.weight *= 4.0;
  EXPECT_TRUE(BitEqual(GeneralizedFootrule(a4, b), GeneralizedFootrule(a, b)));
  EXPECT_TRUE(BitEqual(GeneralizedFootrule(b, a4), GeneralizedFootrule(b, a)));
  EXPECT_EQ(GeneralizedFootrule(a, a4), 0.0);
}

// The union's element weights sum to at most 1 and every prefix-sum gap
// lies in [0, 1], so the distance does too.
TEST(FootruleTest, DistanceLiesInUnitInterval) {
  Rng rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<WeightedFeature> a, b;
    for (size_t i = rng.NextBounded(20); i > 0; --i) {
      a.push_back({static_cast<uint32_t>(rng.NextBounded(25)),
                   0.01 + rng.NextDouble()});
    }
    for (size_t i = rng.NextBounded(20); i > 0; --i) {
      b.push_back({static_cast<uint32_t>(rng.NextBounded(25)),
                   0.01 + rng.NextDouble()});
    }
    const double f = GeneralizedFootrule(a, b);
    EXPECT_GE(f, 0.0) << "trial " << trial;
    EXPECT_LE(f, 1.0 + 1e-12) << "trial " << trial;
  }
}

// ---- OrderKeyIndex ---------------------------------------------------------

// Random pure-ℓ2 steps on `sgd`, re-keying each touched vector.
void StepAndRekey(Rng& rng, uint32_t dim, int steps, ElasticNetSgd& sgd,
                  OrderKeyIndex& index) {
  RandomSteps(rng, dim, steps,
              [&sgd, &index](const SparseVector& x, double g) {
                sgd.ForcedStep(x, g);
                index.Rekey(sgd, x);
              });
}

void ExpectSameList(const std::vector<WeightedFeature>& got,
                    const std::vector<WeightedFeature>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "slot " << i;
    EXPECT_TRUE(BitEqual(got[i].weight, want[i].weight)) << "slot " << i;
  }
}

TEST(OrderKeyIndexTest, EmptyIndexListsNothing) {
  const ElasticNetSgd sgd(kPureL2);
  OrderKeyIndex index;
  EXPECT_TRUE(index.TopK(sgd, 0).empty());
  EXPECT_TRUE(index.TopK(sgd, 5).empty());
}

TEST(OrderKeyIndexTest, ZeroKListsNothing) {
  ElasticNetSgd sgd(kPureL2);
  OrderKeyIndex index;
  Rng rng(43);
  StepAndRekey(rng, 20, 50, sgd, index);
  EXPECT_TRUE(index.TopK(sgd, 0).empty());
  ExpectSameList(index.TopK(sgd, 1), TopKFeatures(sgd.DenseWeights(), 1));
}

TEST(OrderKeyIndexTest, LargeKListsEveryNonZeroWeight) {
  ElasticNetSgd sgd(kPureL2);
  OrderKeyIndex index;
  Rng rng(47);
  StepAndRekey(rng, 60, 120, sgd, index);
  const WeightVector dense = sgd.DenseWeights();
  size_t non_zero = 0;
  for (uint32_t id = 0; id < dense.dimension(); ++id) {
    non_zero += dense.Get(id) != 0.0 ? 1 : 0;
  }
  const std::vector<WeightedFeature> all = index.TopK(sgd, 1000);
  EXPECT_EQ(all.size(), non_zero);
  ExpectSameList(all, TopKFeatures(dense, 1000));
}

// Re-keying a vector whose keys did not move, or a feature with a zero
// weight, leaves the index as it was.
TEST(OrderKeyIndexTest, RekeyIsIdempotent) {
  ElasticNetSgd sgd(kPureL2);
  OrderKeyIndex once;
  OrderKeyIndex twice;
  Rng rng(53);
  RandomSteps(rng, 30, 80, [&](const SparseVector& x, double g) {
    sgd.ForcedStep(x, g);
    once.Rekey(sgd, x);
    twice.Rekey(sgd, x);
    twice.Rekey(sgd, x);
  });
  twice.Rekey(sgd, Vec({{500, 1.0f}}));  // never stepped: weight 0
  for (size_t k : {1u, 5u, 30u, 100u}) {
    ExpectSameList(twice.TopK(sgd, k), once.TopK(sgd, k));
  }
}

// Under fast forgetting (a low step clamp) the order churns at every
// step; the list still equals TopKFeatures over the dense weights.
TEST(OrderKeyIndexTest, MatchesTopKFeaturesUnderFastForgetting) {
  ElasticNetSgd sgd({.lambda_all = 0.05,
                     .lambda_l2_share = 1.0,
                     .step_offset = 2.0,
                     .step_clamp = 10});
  OrderKeyIndex index;
  Rng rng(59);
  RandomSteps(rng, 150, 600, [&](const SparseVector& x, double g) {
    sgd.ForcedStep(x, g);
    index.Rekey(sgd, x);
    const WeightVector dense = sgd.DenseWeights();
    for (size_t k : {1u, 7u, 64u}) {
      ExpectSameList(index.TopK(sgd, k), TopKFeatures(dense, k));
    }
  });
}

// Below twice K's worth of keyed features the window holds every key, so
// every walk ends inside it and no query rebuilds it.
TEST(OrderKeyIndexTest, WindowHoldingEveryKeyNeverRebuilds) {
  ElasticNetSgd sgd(kPureL2);
  OrderKeyIndex index;
  Rng rng(61);
  RandomSteps(rng, 40, 200, [&](const SparseVector& x, double g) {
    sgd.ForcedStep(x, g);
    index.Rekey(sgd, x);
    ExpectSameList(index.TopK(sgd, 25), TopKFeatures(sgd.DenseWeights(), 25));
  });
  EXPECT_EQ(index.rebuilds(), 0u);
}

// Once the window is trimmed to the highest keys, queries at a fixed K
// rebuild it only when a walk cannot stop inside it, which a stream of
// gentle steps over many features does rarely.
TEST(OrderKeyIndexTest, TrimmedWindowRebuildsRarely) {
  ElasticNetSgd sgd(kPureL2);
  OrderKeyIndex index;
  Rng rng(67);
  size_t queries = 0;
  RandomSteps(rng, 400, 1500, [&](const SparseVector& x, double g) {
    sgd.ForcedStep(x, g);
    index.Rekey(sgd, x);
    ExpectSameList(index.TopK(sgd, 5), TopKFeatures(sgd.DenseWeights(), 5));
    ++queries;
  });
  EXPECT_LT(index.rebuilds(), queries / 10);
}

// With an ℓ1 share the keys no longer rank the weights, so TopK refuses
// the learner instead of returning a wrong list.
TEST(OrderKeyIndexTest, RejectsALearnerWithL1) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 0.99});
  OrderKeyIndex index;
  const SparseVector x = Vec({{1, 1.0f}});
  sgd.ForcedStep(x, 1.0);
  index.Rekey(sgd, x);
  EXPECT_DEATH(index.TopK(sgd, 1), "order keys rank weights only without");
}

}  // namespace
}  // namespace ie
