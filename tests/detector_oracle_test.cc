// Lockstep bit-identity tests for the incremental Top-K and Feat-S
// statistics (DESIGN.md §17) and Mod-C's angle (§18): the product and the
// dense oracles of tests/detector_oracle.h consume one stream, and every
// statistic must agree to the bit. Like the golden pins, this suite is a bit-identity
// contract; the CI golden step runs it.
#include "detector_oracle.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ranking/learned_rankers.h"
#include "test_util.h"

namespace ie {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

void ExpectSameList(const std::vector<WeightedFeature>& got,
                    const std::vector<WeightedFeature>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "slot " << i;
    ASSERT_TRUE(BitEqual(got[i].weight, want[i].weight)) << "slot " << i;
  }
}

/// The fixture's pool for one relation as the pipeline feeds detectors:
/// word features with the extractor's usefulness verdicts.
std::vector<LabeledExample> PoolStream(RelationId relation) {
  const SharedContext context = test::MakeSharedContext(relation);
  std::vector<LabeledExample> stream;
  for (DocId doc : *context.pool) {
    stream.push_back({(*context.word_features)[doc],
                      context.outcomes->useful(doc) ? 1 : -1});
  }
  return stream;
}

constexpr int kPasses = 3;

// ---- Top-K ------------------------------------------------------------

// `passes` passes over `stream` with Top-K options `options`. At every
// document the product's footrule equals the dense detector's bit for
// bit, the triggers agree, and an OrderKeyIndex over a second side
// classifier lists exactly TopKFeatures(DenseWeights(), K). Both
// re-reference at every trigger; as in the pipeline, the first reference
// is taken before any Observe. Returns the number of triggers.
size_t RunTopKLockstep(const std::vector<LabeledExample>& stream, int passes,
                       TopKOptions options) {
  const RsvmIeRanker ranker;
  TopKDetector product(options);
  test::DenseTopKDetector oracle(options);
  OnlineBinarySvm side(test::kDenseSideClassifier);
  OrderKeyIndex index;
  product.OnModelUpdated(ranker, {});
  oracle.OnModelUpdated();
  size_t checks = 0;
  size_t triggers = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const LabeledExample& ex : stream) {
      const bool fired = product.Observe(ex.features, ex.label > 0, ranker);
      EXPECT_EQ(fired, oracle.Observe(ex.features, ex.label > 0))
          << "check " << checks;
      EXPECT_TRUE(BitEqual(product.LastStatistic(), oracle.last_distance()))
          << "check " << checks << ": " << product.LastStatistic() << " vs "
          << oracle.last_distance();
      if (side.Update(ex.features, ex.label)) {
        index.Rekey(side.learner(), ex.features);
      }
      ExpectSameList(index.TopK(side.learner(), options.k),
                     oracle.current());
      if (::testing::Test::HasFailure()) return triggers;
      ++checks;
      if (fired) {
        ++triggers;
        product.OnModelUpdated(ranker, {});
        oracle.OnModelUpdated();
      }
    }
  }
  EXPECT_EQ(checks, passes * stream.size());
  return triggers;
}

size_t RunTopKLockstep(RelationId relation, TopKOptions options) {
  return RunTopKLockstep(PoolStream(relation), kPasses, options);
}

// The default options over the PH and PC pools. PH fires on this stream,
// PC does not.
TEST(DetectorOracleTest, TopKLockstepOnFixturePools) {
  for (RelationId relation :
       {RelationId::kPersonCharge, RelationId::kPersonCareer}) {
    SCOPED_TRACE(GetRelation(relation).name);
    const size_t triggers = RunTopKLockstep(relation, TopKOptions{});
    if (relation == RelationId::kPersonCharge) {
      EXPECT_GT(triggers, 0u);
    }
  }
}

// Features that always co-occur with equal values carry bit-equal weights
// and keys. With K cutting through such a group, ascending id decides who
// gets the slot, exactly as TopKFeatures does. K runs from 0 past the
// non-zero count.
TEST(DetectorOracleTest, TopKTiesAtTheKthSlotBreakByAscendingId) {
  OnlineBinarySvm side(test::kDenseSideClassifier);
  OrderKeyIndex index;
  Rng rng(17);
  const std::vector<uint32_t> group = {41, 7, 23, 58};  // always together
  for (int step = 0; step < 400; ++step) {
    std::vector<SparseVector::Entry> entries;
    for (uint32_t id : group) entries.emplace_back(id, 0.5f);
    entries.emplace_back(static_cast<uint32_t>(100 + rng.NextBounded(6)),
                         0.25f + 0.5f * static_cast<float>(rng.NextDouble()));
    const SparseVector x = Vec(std::move(entries));
    if (side.Update(x, rng.NextBool(0.5) ? 1 : -1)) {
      index.Rekey(side.learner(), x);
    }
    const WeightVector dense = side.DenseWeights();
    for (size_t k = 0; k <= 12; ++k) {
      ExpectSameList(index.TopK(side.learner(), k), TopKFeatures(dense, k));
    }
  }
  // The group is tied: its members appear in ascending id order.
  const std::vector<WeightedFeature> all = index.TopK(side.learner(), 100);
  std::vector<uint32_t> group_order;
  for (const WeightedFeature& f : all) {
    if (f.id < 100) group_order.push_back(f.id);
  }
  EXPECT_EQ(group_order, (std::vector<uint32_t>{7, 23, 41, 58}));
}

// A pure-ℓ2 learner whose weights shrink by 3x per step (η = 4/3).
constexpr ElasticNetOptions kFastDecay = {.lambda_all = 0.5,
                                          .lambda_l2_share = 1.0,
                                          .step_offset = 1.5,
                                          .step_clamp = 0};

// Untouched weights fall through the subnormal range to exactly 0 while
// fresh ones are normal. The index must drop the zeros and keep the
// subnormals in order.
TEST(DetectorOracleTest, TopKUnderflowingWeights) {
  ElasticNetSgd sgd(kFastDecay);
  OrderKeyIndex index;
  Rng rng(29);
  size_t saw_subnormal = 0;
  size_t saw_underflow = 0;
  for (int step = 0; step < 1500; ++step) {
    // Rare touches: most features go untouched for hundreds of steps.
    if (rng.NextBool(0.05)) {
      const auto a = static_cast<uint32_t>(rng.NextBounded(40));
      const auto b = static_cast<uint32_t>(40 + rng.NextBounded(40));
      const SparseVector x =
          Vec({{a, static_cast<float>(rng.NextDouble())}, {b, 1.0f}});
      sgd.ForcedStep(x, rng.NextBool(0.5) ? 1.0 : -1.0);
      index.Rekey(sgd, x);
    } else {
      sgd.ForcedStep(SparseVector(), 0.0);
    }
    const WeightVector dense = sgd.DenseWeights();
    for (uint32_t id = 0; id < 80; ++id) {
      const double w = std::fabs(sgd.CurrentWeight(id));
      saw_subnormal += w > 0.0 && w < DBL_MIN ? 1 : 0;
      saw_underflow += w == 0.0 && sgd.OrderKey(id) != -HUGE_VAL ? 1 : 0;
    }
    for (size_t k : {1u, 3u, 10u, 200u}) {
      ExpectSameList(index.TopK(sgd, k), TopKFeatures(dense, k));
    }
  }
  EXPECT_GT(saw_subnormal, 0u);
  EXPECT_GT(saw_underflow, 0u);
}

// Two weights whose keys differ by ~1e-6, decayed deep into the subnormal
// range, round to the same value, and ascending id must then decide. A
// subnormal candidate therefore turns the walk's early stop off.
TEST(DetectorOracleTest, TopKSubnormalWeightsTieByAscendingId) {
  ElasticNetSgd sgd(kFastDecay);
  OrderKeyIndex index;
  const SparseVector x = Vec({{3, 0.75f * (1.0f - 1e-6f)}, {5, 0.75f}});
  sgd.ForcedStep(x, 1.0);
  index.Rekey(sgd, x);
  size_t tied = 0;
  while (sgd.CurrentWeight(5) != 0.0) {
    const WeightVector dense = sgd.DenseWeights();
    tied += sgd.CurrentWeight(3) == sgd.CurrentWeight(5) ? 1 : 0;
    for (size_t k : {1u, 2u}) {
      ExpectSameList(index.TopK(sgd, k), TopKFeatures(dense, k));
    }
    sgd.ForcedStep(SparseVector(), 0.0);
  }
  EXPECT_GT(tied, 0u);
}

// Random lists with repeated ids, tied and zero weights, and empty sides:
// the flat footrule equals the hash-map one bit for bit.
TEST(DetectorOracleTest, FootruleMatchesHashMapOracle) {
  Rng rng(5);
  auto random_list = [&rng](size_t n) {
    std::vector<WeightedFeature> list;
    for (size_t i = 0; i < n; ++i) {
      const double weight = rng.NextBool(0.2)   ? 0.5
                            : rng.NextBool(0.1) ? 0.0
                                                : rng.NextDouble();
      list.push_back({static_cast<uint32_t>(rng.NextBounded(30)), weight});
    }
    return list;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = random_list(rng.NextBounded(25));
    const auto b = random_list(rng.NextBounded(25));
    ASSERT_TRUE(BitEqual(GeneralizedFootrule(a, b), test::DenseFootrule(a, b)))
        << "trial " << trial;
  }
  const std::vector<WeightedFeature> dup = {{3, 1.0}, {3, 5.0}, {1, 2.0}};
  const std::vector<WeightedFeature> zeros = {{3, 0.0}, {4, 0.0}};
  for (const auto& [a, b] :
       std::vector<std::pair<std::vector<WeightedFeature>,
                             std::vector<WeightedFeature>>>{
           {dup, {}}, {{}, dup}, {dup, dup}, {zeros, dup}, {{}, {}}}) {
    EXPECT_TRUE(BitEqual(GeneralizedFootrule(a, b), test::DenseFootrule(a, b)));
  }
}

// ---- The order-key window ---------------------------------------------

// The default K over a long stream: seven passes over every document of
// the generated corpus (21,000 documents), so the window churns as it
// does on a long run.
TEST(DetectorOracleTest, TopKLockstepOverLongCorpusStream) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCareer);
  std::vector<LabeledExample> stream;
  for (DocId doc = 0; doc < context.word_features->size(); ++doc) {
    stream.push_back({(*context.word_features)[doc],
                      context.outcomes->useful(doc) ? 1 : -1});
  }
  constexpr int kLongPasses = 7;
  ASSERT_GE(kLongPasses * stream.size(), 20000u);
  RunTopKLockstep(stream, kLongPasses, TopKOptions{.k = 200});
}

// One to four random features of [0, dim) with values in (0.25, 1].
SparseVector RandomVector(Rng& rng, uint32_t dim) {
  std::vector<SparseVector::Entry> entries;
  for (size_t n = 1 + rng.NextBounded(4); n > 0; --n) {
    entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(dim)),
                         0.25f + 0.75f * static_cast<float>(rng.NextDouble()));
  }
  return Vec(std::move(entries));
}

// A forced step on x, re-keyed; then the index's list equals
// TopKFeatures over the dense weights at every K of `ks`.
void StepAndCheck(ElasticNetSgd& sgd, OrderKeyIndex& index,
                  const SparseVector& x, double gradient,
                  std::initializer_list<size_t> ks) {
  sgd.ForcedStep(x, gradient);
  index.Rekey(sgd, x);
  const WeightVector dense = sgd.DenseWeights();
  for (size_t k : ks) {
    ExpectSameList(index.TopK(sgd, k), TopKFeatures(dense, k));
  }
}

// At K = 2 the window keeps 4 to 8 keys. A query at K = 40 cannot stop
// inside it, so it rebuilds the window, and later queries at both K read
// the wider one.
TEST(DetectorOracleTest, WindowRebuildsForAKLargerThanIt) {
  ElasticNetSgd sgd(test::kDenseSideClassifier);
  OrderKeyIndex index;
  Rng rng(61);
  for (int step = 0; step < 300; ++step) {
    StepAndCheck(sgd, index, RandomVector(rng, 150), rng.NextBool(0.5) ? 1 : -1,
                 {2});
  }
  const size_t before = index.rebuilds();
  ExpectSameList(index.TopK(sgd, 40), TopKFeatures(sgd.DenseWeights(), 40));
  EXPECT_GT(index.rebuilds(), before);
  for (int step = 0; step < 300; ++step) {
    StepAndCheck(sgd, index, RandomVector(rng, 150), rng.NextBool(0.5) ? 1 : -1,
                 {2, 40});
  }
}

// Five features pushed to the top are pushed down together, through zero
// and out the other side. On the way down their keys leave the small
// window of K = 1 and 3, which then cannot prove a stop and is rebuilt;
// once their weights flip sign and grow, their keys rise into it again.
TEST(DetectorOracleTest, WindowRebuildsWhenTopWeightsShrinkAndFlip) {
  ElasticNetSgd sgd(test::kDenseSideClassifier);
  OrderKeyIndex index;
  Rng rng(67);
  for (int step = 0; step < 200; ++step) {
    StepAndCheck(sgd, index, RandomVector(rng, 60), rng.NextBool(0.5) ? 1 : -1,
                 {1});
  }
  const SparseVector tops =
      Vec({{500, 1.0f}, {501, 0.9f}, {502, 0.8f}, {503, 0.7f}, {504, 0.6f}});
  for (int step = 0; step < 40; ++step) {
    StepAndCheck(sgd, index, tops, 1.0, {1});
  }
  const double peak = sgd.CurrentWeight(500);
  const size_t before = index.rebuilds();
  size_t flipped = 0;
  while (sgd.CurrentWeight(500) > -peak) {
    StepAndCheck(sgd, index, tops, -1.0, {1, 3});
    flipped += sgd.CurrentWeight(504) < 0.0 ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(index.rebuilds(), before);
  EXPECT_GT(flipped, 0u);
  EXPECT_EQ(index.TopK(sgd, 1)[0].id, 500u);  // back on top, negative
}

// The factor of a forced step on {id: 1} that sets feature id's weight to
// exactly zero, or NaN when none is found: factors around the one that
// cancels the decayed weight are tried on copies of the learner.
double ZeroingGradient(const ElasticNetSgd& sgd, uint32_t id) {
  const SparseVector x = Vec({{id, 1.0f}});
  ElasticNetSgd decayed = sgd;
  decayed.ForcedStep(SparseVector(), 0.0);
  ElasticNetSgd unit = sgd;
  unit.ForcedStep(x, 1.0);
  const double weight = decayed.CurrentWeight(id);
  double gradient = -weight / (unit.CurrentWeight(id) - weight);
  for (int attempt = 0; attempt < 64; ++attempt) {
    ElasticNetSgd trial = sgd;
    trial.ForcedStep(x, gradient);
    const double w = trial.CurrentWeight(id);
    if (w == 0.0) return gradient;
    gradient = std::nextafter(gradient, w > 0.0 ? -HUGE_VAL : HUGE_VAL);
  }
  return std::nan("");
}

// A top weight that turns NaN (key NaN, read as -inf) or exactly zero
// (key -inf) leaves the window and is never listed; a window left without
// a candidate is rebuilt.
TEST(DetectorOracleTest, WindowDropsNaNAndZeroWeights) {
  ElasticNetSgd sgd(test::kDenseSideClassifier);
  OrderKeyIndex index;
  Rng rng(71);
  for (int step = 0; step < 200; ++step) {
    StepAndCheck(sgd, index, RandomVector(rng, 60), rng.NextBool(0.5) ? 1 : -1,
                 {1});
  }
  for (int step = 0; step < 40; ++step) {
    StepAndCheck(sgd, index, Vec({{500, 1.0f}, {501, 0.9f}}), 1.0, {1});
  }
  const size_t before = index.rebuilds();
  StepAndCheck(sgd, index, Vec({{500, std::nanf("")}}), 1.0, {1, 2});
  EXPECT_TRUE(std::isnan(sgd.OrderKey(500)));
  // Zeroes the new top feature; a few steps may pass before a factor
  // lands exactly on zero.
  bool zeroed = false;
  for (int step = 0; step < 50 && !zeroed; ++step) {
    const double gradient = ZeroingGradient(sgd, 501);
    if (std::isnan(gradient)) {
      StepAndCheck(sgd, index, SparseVector(), 0.0, {1, 2});
      continue;
    }
    StepAndCheck(sgd, index, Vec({{501, 1.0f}}), gradient, {1, 2});
    zeroed = true;
  }
  ASSERT_TRUE(zeroed);
  EXPECT_EQ(sgd.CurrentWeight(501), 0.0);
  EXPECT_EQ(sgd.OrderKey(501), -HUGE_VAL);
  EXPECT_GT(index.rebuilds(), before);
  for (const WeightedFeature& f : index.TopK(sgd, 100)) {
    EXPECT_NE(f.id, 500u);
    EXPECT_NE(f.id, 501u);
  }
}

// Under fast forgetting, bursts of steps touch features and long quiet
// stretches decay them through the subnormal range to zero. A subnormal
// candidate turns the walk's early stop off, so the window (6 to 12 keys
// at K = 3) cannot prove a stop and is rebuilt, and the list still equals
// TopKFeatures.
TEST(DetectorOracleTest, WindowRebuildsAroundSubnormalCandidates) {
  ElasticNetSgd sgd(kFastDecay);
  OrderKeyIndex index;
  Rng rng(73);
  size_t subnormal_tops = 0;
  for (int step = 0; step < 2100; ++step) {
    const SparseVector x =
        step % 700 < 8 ? RandomVector(rng, 80) : SparseVector();
    StepAndCheck(sgd, index, x, rng.NextBool(0.5) ? 1.0 : -1.0, {1, 3});
    const std::vector<WeightedFeature> top = index.TopK(sgd, 3);
    subnormal_tops += !top.empty() && top.back().weight < DBL_MIN ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(subnormal_tops, 0u);
  EXPECT_GT(index.rebuilds(), 0u);
}

// ---- The reference-list footrule --------------------------------------

// One reference measures many lists, its scratch reused from call to
// call: every distance is memcmp-equal to GeneralizedFootrule and to the
// hash-map oracle. The lists include empty ones, repeated ids on either
// side, lists disjoint from the reference, the reference itself, and
// perturbations of it as the Top-K detector sees them.
TEST(DetectorOracleTest, FootruleReferenceMatchesBothFootrules) {
  Rng rng(79);
  auto random_list = [&rng](size_t n, uint32_t base, uint32_t range) {
    std::vector<WeightedFeature> list;
    for (size_t i = 0; i < n; ++i) {
      const double weight = rng.NextBool(0.1) ? 0.5 : rng.NextDouble();
      list.push_back(
          {base + static_cast<uint32_t>(rng.NextBounded(range)), weight});
    }
    return list;
  };
  auto perturbed = [&rng](std::vector<WeightedFeature> list) {
    for (WeightedFeature& f : list) {
      if (rng.NextBool(0.1)) {
        f.id = 5000 + static_cast<uint32_t>(rng.NextBounded(50));
      }
      if (rng.NextBool(0.2)) f.weight *= 0.5 + rng.NextDouble();
    }
    if (list.size() > 1 && rng.NextBool(0.5)) {
      std::swap(list[rng.NextBounded(list.size())],
                list[rng.NextBounded(list.size())]);
    }
    return list;
  };
  size_t checks = 0;
  auto check = [&checks](FootruleReference& reference,
                         const std::vector<WeightedFeature>& a,
                         const std::vector<WeightedFeature>& b) {
    const double got = reference.Distance(b);
    ASSERT_TRUE(BitEqual(got, GeneralizedFootrule(a, b))) << "check " << checks;
    ASSERT_TRUE(BitEqual(got, test::DenseFootrule(a, b))) << "check " << checks;
    ++checks;
  };
  for (int trial = 0; trial < 300; ++trial) {
    // Short lists over a small id range repeat ids; long ones mostly not.
    const bool small = trial % 2 == 0;
    const auto a = small ? random_list(rng.NextBounded(25), 0, 30)
                         : random_list(rng.NextBounded(200), 0, 100000);
    FootruleReference reference(a);
    check(reference, a, a);
    check(reference, a, {});
    check(reference, a, random_list(1 + rng.NextBounded(25), 1000000, 30));
    for (int i = 0; i < 10; ++i) {
      check(reference, a, perturbed(a));
      check(reference, a,
            small ? random_list(rng.NextBounded(25), 0, 30)
                  : random_list(rng.NextBounded(200), 0, 100000));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  const std::vector<WeightedFeature> dup = {{3, 1.0}, {3, 5.0}, {1, 2.0}};
  FootruleReference empty;
  check(empty, {}, {});
  check(empty, {}, dup);
  FootruleReference from_dup(dup);
  check(from_dup, dup, dup);
  check(from_dup, dup, {{1, 1.0}, {3, 1.0}});
  check(from_dup, dup, {});
  EXPECT_EQ(checks, 300u * 23u + 5u);
}

// ---- Feat-S -----------------------------------------------------------

// Three passes over one relation's pool with one-class SVM options
// `options`. At every document Decision equals the merge-dot oracle's bit
// for bit, and IsInlier agrees with the oracle's decision at margins
// around it, including the decision itself. Returns the number of
// decisions taken with the support-vector budget full.
size_t RunFeatSLockstep(RelationId relation, OneClassSvmOptions options) {
  const std::vector<LabeledExample> stream = PoolStream(relation);
  OneClassSvm product(options);
  test::MergeDotOneClassSvm oracle(options);
  size_t full_budget_decisions = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const LabeledExample& ex : stream) {
      const double want = oracle.Decision(ex.features);
      const double got = product.Decision(ex.features);
      EXPECT_TRUE(BitEqual(got, want)) << got << " vs " << want;
      for (double margin :
           {want, std::nextafter(want, -HUGE_VAL),
            std::nextafter(want, HUGE_VAL), 0.5 * want, 2.0 * want, 0.0,
            FeatSOptions{}.margin_quantile, 1.0, -1.0}) {
        EXPECT_EQ(product.IsInlier(ex.features, margin), want >= margin)
            << "margin " << margin;
      }
      if (oracle.NumSupportVectors() == options.budget) {
        ++full_budget_decisions;
      }
      product.Observe(ex.features);
      oracle.Observe(ex.features);
      EXPECT_EQ(product.NumSupportVectors(), oracle.NumSupportVectors());
      if (::testing::Test::HasFailure()) return full_budget_decisions;
    }
  }
  return full_budget_decisions;
}

// The Feat-S SVM options over the PH and PC pools.
TEST(DetectorOracleTest, FeatSLockstepOnFixturePools) {
  const OneClassSvmOptions options = FeatSOptions{}.svm;
  for (RelationId relation :
       {RelationId::kPersonCharge, RelationId::kPersonCareer}) {
    SCOPED_TRACE(GetRelation(relation).name);
    EXPECT_GE(RunFeatSLockstep(relation, options),
              PoolStream(relation).size());
  }
}

// Budgets of one and two support vectors evict at every step once full.
// Each document carries its own marker feature next to two shared ones,
// so the shared features' postings list every support vector, and a
// probe on a marker tells whether its support vector is still there. Over
// the stream the first, a middle (budget 2) and the last support vector
// are each evicted. After every Observe, Decision and IsInlier at margins
// -inf, 0, 1, +inf and NaN match the merge-dot oracle.
TEST(DetectorOracleTest, FeatSEvictionsMatchMergeDotOracle) {
  for (size_t budget : {1u, 2u}) {
    SCOPED_TRACE(budget);
    const OneClassSvmOptions options = {
        .gamma = 8.0, .lambda = 0.01, .budget = budget};
    OneClassSvm product(options);
    test::MergeDotOneClassSvm oracle(options);
    Rng rng(83 + budget);
    std::vector<uint32_t> support;  // markers, in support order
    std::vector<size_t> evictions(budget + 1, 0);  // by support position
    SparseVector previous;
    for (uint32_t doc = 0; doc < 400; ++doc) {
      const uint32_t marker = 100 + doc;
      SparseVector x =
          Vec({{0, 0.1f + 0.3f * static_cast<float>(rng.NextDouble())},
               {1, 0.1f + 0.3f * static_cast<float>(rng.NextDouble())},
               {marker, 1.0f}});
      x.Normalize();
      product.Observe(x);
      oracle.Observe(x);
      ASSERT_EQ(product.NumSupportVectors(), oracle.NumSupportVectors());
      for (const SparseVector* probe : {&x, &previous}) {
        const double want = oracle.Decision(*probe);
        ASSERT_TRUE(BitEqual(product.Decision(*probe), want))
            << "doc " << doc;
        for (double margin : {-HUGE_VAL, 0.0, 1.0, HUGE_VAL, std::nan("")}) {
          ASSERT_EQ(product.IsInlier(*probe, margin), want >= margin)
              << "doc " << doc << ", margin " << margin;
        }
      }
      previous = x;
      // Every document lies far from the others, so it becomes a support
      // vector; a marker whose support vector left decides near 0.
      support.push_back(marker);
      if (support.size() <= budget) continue;
      for (size_t pos = 0; pos < support.size(); ++pos) {
        if (oracle.Decision(Vec({{support[pos], 1.0f}})) < 1e-3) {
          ++evictions[pos];
          support.erase(support.begin() + static_cast<long>(pos));
          break;
        }
      }
      ASSERT_EQ(support.size(), budget) << "doc " << doc;
    }
    for (size_t pos = 0; pos <= budget; ++pos) {
      EXPECT_GT(evictions[pos], 0u) << "position " << pos;
    }
  }
}

// ---- Mod-C ------------------------------------------------------------

// Three passes over one relation's pool with the pipeline's Mod-C options
// for the ranker. The ranker trains on the pool's first documents. At
// every trigger it absorbs the documents seen since its last update, both
// detectors re-clone it, and it then commits (a scoring snapshot), in the
// pipeline's order. At every document the angles are memcmp-equal and the
// triggers agree. Returns the number of triggers.
template <typename Ranker>
size_t RunModCLockstep(RelationId relation, RankerKind kind) {
  const std::vector<LabeledExample> stream = PoolStream(relation);
  const ModCOptions options =
      PipelineConfig::Defaults(kind, SamplerKind::kSRS, UpdateKind::kModC, 1)
          .modc;
  Ranker ranker;
  ranker.TrainInitial(
      std::vector<LabeledExample>(stream.begin(), stream.begin() + 120));
  ModCDetector product(options, 53);
  test::DenseModCDetector oracle(options, 53);
  product.OnModelUpdated(ranker, {});
  oracle.OnModelUpdated(ranker);
  std::vector<LabeledExample> buffer;
  size_t docs = 0;
  size_t triggers = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const LabeledExample& ex : stream) {
      const bool fired = product.Observe(ex.features, ex.label > 0, ranker);
      EXPECT_EQ(fired, oracle.Observe(ex.features, ex.label > 0))
          << "document " << docs;
      EXPECT_TRUE(BitEqual(product.LastStatistic(),
                           oracle.last_angle_degrees()))
          << "document " << docs << ": " << product.LastStatistic()
          << " vs " << oracle.last_angle_degrees();
      if (::testing::Test::HasFailure()) return triggers;
      ++docs;
      buffer.push_back(ex);
      if (fired) {
        ++triggers;
        for (const LabeledExample& absorbed : buffer) {
          ranker.Observe(absorbed.features, absorbed.label > 0);
        }
        buffer.clear();
        product.OnModelUpdated(ranker, {});
        oracle.OnModelUpdated(ranker);
        ranker.SnapshotForScoring();
      }
    }
  }
  return triggers;
}

TEST(DetectorOracleTest, ModCLockstepRsvmIeOnFixturePools) {
  for (RelationId relation :
       {RelationId::kPersonCharge, RelationId::kPersonCareer}) {
    SCOPED_TRACE(GetRelation(relation).name);
    EXPECT_GT(RunModCLockstep<RsvmIeRanker>(relation, RankerKind::kRSVMIE),
              0u);
  }
}

TEST(DetectorOracleTest, ModCLockstepBaggIeOnFixturePools) {
  for (RelationId relation :
       {RelationId::kPersonCharge, RelationId::kPersonCareer}) {
    SCOPED_TRACE(GetRelation(relation).name);
    EXPECT_GT(RunModCLockstep<BaggIeRanker>(relation, RankerKind::kBAggIE),
              0u);
  }
}

// ---- Option sweeps ----------------------------------------------------

const char* RelationCode(RelationId relation) {
  return relation == RelationId::kPersonCharge ? "PH" : "PC";
}

// The order-key walk's stop depends on K, and τ sets how often the
// reference list is re-read, so the Top-K lockstep runs again at K from a
// single slot to 2.5 times the default, with a τ that fires more often at
// the middle K.
struct TopKCase {
  RelationId relation;
  size_t k;
  double tau;
};

void PrintTo(const TopKCase& c, std::ostream* os) {
  *os << RelationCode(c.relation) << " k=" << c.k << " tau=" << c.tau;
}

class TopKDetectorOracleTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKDetectorOracleTest, MatchesDenseOracle) {
  const TopKCase& param = GetParam();
  RunTopKLockstep(param.relation, {.k = param.k, .tau = param.tau});
}

INSTANTIATE_TEST_SUITE_P(
    RelationsAndK, TopKDetectorOracleTest,
    ::testing::Values(TopKCase{RelationId::kPersonCharge, 1, 0.10},
                      TopKCase{RelationId::kPersonCharge, 10, 0.05},
                      TopKCase{RelationId::kPersonCharge, 50, 0.02},
                      TopKCase{RelationId::kPersonCharge, 500, 0.10},
                      TopKCase{RelationId::kPersonCareer, 1, 0.10},
                      TopKCase{RelationId::kPersonCareer, 10, 0.05},
                      TopKCase{RelationId::kPersonCareer, 50, 0.02},
                      TopKCase{RelationId::kPersonCareer, 500, 0.10}),
    [](const ::testing::TestParamInfo<TopKCase>& info) {
      return std::string(RelationCode(info.param.relation)) + "_k" +
             std::to_string(info.param.k);
    });

// The support-vector budget sets when eviction starts, and γ how many
// kernels underflow, so the Feat-S lockstep runs again with a budget of one
// support vector up to a few dozen and with a wide and a narrow kernel.
struct FeatSCase {
  RelationId relation;
  size_t budget;
  double gamma;
};

void PrintTo(const FeatSCase& c, std::ostream* os) {
  *os << RelationCode(c.relation) << " budget=" << c.budget
      << " gamma=" << c.gamma;
}

class FeatSDetectorOracleTest : public ::testing::TestWithParam<FeatSCase> {};

TEST_P(FeatSDetectorOracleTest, MatchesMergeDotOracle) {
  const FeatSCase& param = GetParam();
  OneClassSvmOptions options = FeatSOptions{}.svm;
  options.budget = param.budget;
  options.gamma = param.gamma;
  EXPECT_GT(RunFeatSLockstep(param.relation, options), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RelationsAndBudgets, FeatSDetectorOracleTest,
    ::testing::Values(FeatSCase{RelationId::kPersonCharge, 1, 0.01},
                      FeatSCase{RelationId::kPersonCharge, 8, 0.01},
                      FeatSCase{RelationId::kPersonCharge, 32, 1.0},
                      FeatSCase{RelationId::kPersonCareer, 1, 0.01},
                      FeatSCase{RelationId::kPersonCareer, 8, 0.01},
                      FeatSCase{RelationId::kPersonCareer, 32, 1.0}),
    [](const ::testing::TestParamInfo<FeatSCase>& info) {
      return std::string(RelationCode(info.param.relation)) + "_budget" +
             std::to_string(info.param.budget);
    });

}  // namespace
}  // namespace ie
