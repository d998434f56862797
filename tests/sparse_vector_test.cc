#include "text/sparse_vector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace ie {
namespace {

SparseVector Make(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

TEST(SparseVectorTest, FromUnsortedSortsById) {
  const SparseVector v = Make({{5, 1.0f}, {1, 2.0f}, {3, 3.0f}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.id(0), 1u);
  EXPECT_EQ(v.id(1), 3u);
  EXPECT_EQ(v.id(2), 5u);
}

TEST(SparseVectorTest, FromUnsortedSumsDuplicates) {
  const SparseVector v = Make({{2, 1.0f}, {2, 2.5f}});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_FLOAT_EQ(v.Get(2), 3.5f);
}

TEST(SparseVectorTest, FromUnsortedDropsZeros) {
  const SparseVector v = Make({{2, 1.0f}, {2, -1.0f}, {4, 0.0f}});
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, GetMissingIsZero) {
  const SparseVector v = Make({{1, 1.0f}});
  EXPECT_FLOAT_EQ(v.Get(0), 0.0f);
  EXPECT_FLOAT_EQ(v.Get(2), 0.0f);
}

TEST(SparseVectorTest, Norms) {
  const SparseVector v = Make({{0, 3.0f}, {1, -4.0f}});
  EXPECT_DOUBLE_EQ(v.L2NormSquared(), 25.0);
  EXPECT_DOUBLE_EQ(v.L2Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.L1Norm(), 7.0);
}

TEST(SparseVectorTest, DimensionBound) {
  EXPECT_EQ(SparseVector().DimensionBound(), 0u);
  EXPECT_EQ(Make({{7, 1.0f}}).DimensionBound(), 8u);
}

TEST(SparseVectorTest, ScaleAndNormalize) {
  SparseVector v = Make({{0, 3.0f}, {1, 4.0f}});
  v.Scale(2.0f);
  EXPECT_FLOAT_EQ(v.Get(0), 6.0f);
  v.Normalize();
  EXPECT_NEAR(v.L2Norm(), 1.0, 1e-6);
}

TEST(SparseVectorTest, NormalizeZeroVectorIsNoop) {
  SparseVector v;
  v.Normalize();
  EXPECT_TRUE(v.empty());
}

TEST(DotTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(Dot(Make({{0, 1.0f}}), Make({{1, 1.0f}})), 0.0);
}

TEST(DotTest, OverlappingSum) {
  const SparseVector a = Make({{0, 1.0f}, {2, 2.0f}, {5, 3.0f}});
  const SparseVector b = Make({{2, 4.0f}, {5, -1.0f}, {9, 10.0f}});
  EXPECT_DOUBLE_EQ(Dot(a, b), 8.0 - 3.0);
}

TEST(DotTest, Commutative) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SparseVector::Entry> ea, eb;
    for (int i = 0; i < 30; ++i) {
      ea.emplace_back(rng.NextBounded(50),
                      static_cast<float>(rng.NextGaussian()));
      eb.emplace_back(rng.NextBounded(50),
                      static_cast<float>(rng.NextGaussian()));
    }
    const SparseVector a = Make(ea), b = Make(eb);
    EXPECT_NEAR(Dot(a, b), Dot(b, a), 1e-9);
  }
}

// ---- WeightVector ------------------------------------------------------

TEST(WeightVectorTest, GetBeyondSizeIsZero) {
  WeightVector w;
  EXPECT_DOUBLE_EQ(w.Get(100), 0.0);
}

TEST(WeightVectorTest, SetGrowsVector) {
  WeightVector w;
  w.Set(5, 2.0);
  EXPECT_EQ(w.dimension(), 6u);
  EXPECT_DOUBLE_EQ(w.Get(5), 2.0);
  EXPECT_DOUBLE_EQ(w.Get(3), 0.0);
}

TEST(WeightVectorTest, DotWithSparse) {
  WeightVector w;
  w.Set(0, 2.0);
  w.Set(4, -1.0);
  EXPECT_DOUBLE_EQ(w.Dot(Make({{0, 3.0f}, {4, 2.0f}, {9, 5.0f}})), 4.0);
}

TEST(WeightVectorTest, NonZeroCount) {
  WeightVector w;
  w.Set(0, 1.0);
  w.Set(1, 0.0);
  w.Set(2, 1e-15);
  w.Set(3, -2.0);
  EXPECT_EQ(w.NonZeroCount(), 2u);
}

TEST(WeightVectorTest, CosineOfScaledCopies) {
  WeightVector a, b;
  a.Set(0, 1.0);
  a.Set(2, 2.0);
  b.Set(0, 3.0);
  b.Set(2, 6.0);
  EXPECT_NEAR(WeightVector::Cosine(a, b), 1.0, 1e-12);
}

TEST(WeightVectorTest, CosineHandlesDifferentDimensions) {
  WeightVector a, b;
  a.Set(0, 1.0);
  b.Set(0, 1.0);
  b.Set(10, 1.0);
  EXPECT_NEAR(WeightVector::Cosine(a, b), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(WeightVectorTest, CosineZeroVector) {
  WeightVector a, b;
  a.Set(0, 1.0);
  EXPECT_DOUBLE_EQ(WeightVector::Cosine(a, b), 0.0);
}

TEST(WeightVectorTest, ForEachNonZeroSkipsZeros) {
  WeightVector w;
  w.Set(0, 1.0);
  w.Set(1, 0.0);
  w.Set(2, -2.0);
  std::vector<std::pair<uint32_t, double>> seen;
  w.ForEachNonZero([&](uint32_t id, double value) { seen.push_back({id, value}); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_DOUBLE_EQ(seen[0].second, 1.0);
  EXPECT_EQ(seen[1].first, 2u);
  EXPECT_DOUBLE_EQ(seen[1].second, -2.0);
}

}  // namespace
}  // namespace ie
