#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace ie {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.NextUint64() == b.NextUint64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedResets) {
  Rng a(7);
  const uint64_t first = a.NextUint64();
  a.NextUint64();
  a.Seed(7);
  EXPECT_EQ(a.NextUint64(), first);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(3);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ZipfInRange) {
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.NextZipf(50, 1.1), 50u);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(9);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.2) < 10) ++low;
  }
  // A Zipf(1.2) law puts far more than uniform (1%) mass on the top 10.
  EXPECT_GT(low, n / 4);
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(10);
  EXPECT_EQ(rng.NextZipf(1, 1.0), 0u);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(14);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  // Every index should be picked roughly equally often across repetitions.
  std::vector<int> counts(20, 0);
  for (int rep = 0; rep < 4000; ++rep) {
    Rng rng(1000 + rep);
    for (size_t idx : rng.SampleWithoutReplacement(20, 5)) ++counts[idx];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 4000.0, 0.25, 0.05);
  }
}

}  // namespace
}  // namespace ie
