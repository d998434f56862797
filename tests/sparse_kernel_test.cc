// Bit-exactness tests for the SoA sparse kernels (text/sparse_kernels.h):
// every kernel must be bitwise identical to a naive scalar reference, since
// the golden-hash determinism matrix pins scores derived from them. The
// references here deliberately mirror the pre-SoA implementations: per-entry
// bounds checks, no unrolling.
#include "text/sparse_kernels.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "text/sparse_vector.h"

namespace ie {
namespace {

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// ---- scalar references (the old AoS per-entry code) ----

double RefDot(const double* w, size_t dim, const uint32_t* ids,
              const float* vals, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] < dim) s += w[ids[i]] * static_cast<double>(vals[i]);
  }
  return s;
}

// Random sorted unique ids in [0, id_bound) with values that include
// negatives, exact zeros, and subnormal-scale magnitudes.
struct RandomSparse {
  std::vector<uint32_t> ids;
  std::vector<float> vals;
};

RandomSparse MakeSparse(Rng& rng, size_t n, uint32_t id_bound) {
  RandomSparse s;
  uint32_t next = 0;
  for (size_t i = 0; i < n && next < id_bound; ++i) {
    next += static_cast<uint32_t>(rng.NextBounded(id_bound / (n + 1) + 2));
    if (next >= id_bound) break;
    s.ids.push_back(next);
    float v = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    if (rng.NextBool(0.05)) v = 0.0f;
    s.vals.push_back(v);
    ++next;
  }
  return s;
}

std::vector<double> MakeWeights(Rng& rng, size_t dim) {
  std::vector<double> w(dim);
  for (auto& x : w) {
    x = rng.NextDouble(-1.0, 1.0);
    if (rng.NextBool(0.2)) x = 0.0;   // exercise the sign(0) path
    if (rng.NextBool(0.02)) x = -0.0; // and the -0.0 weight path
  }
  return w;
}

TEST(SparseKernelTest, BoundedPrefixMatchesPerEntryCheck) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = MakeSparse(rng, 1 + rng.NextBounded(64), 500);
    const size_t dim = rng.NextBounded(600);
    size_t expected = 0;
    for (size_t i = 0; i < s.ids.size(); ++i) {
      if (s.ids[i] < dim) ++expected;
    }
    // Sorted ids: in-range entries are exactly a prefix.
    EXPECT_EQ(kernels::BoundedPrefix(s.ids.data(), s.ids.size(), dim),
              expected);
  }
  EXPECT_EQ(kernels::BoundedPrefix(nullptr, 0, 10), 0u);
}

TEST(SparseKernelTest, GatherDotBitParityRandomized) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    // Lengths cover empty, single, and unaligned (n % 4 != 0) shapes.
    const size_t n = rng.NextBounded(67);
    const auto s = MakeSparse(rng, n, 1000);
    const size_t dim = 1 + rng.NextBounded(1200);  // some ids beyond dim
    const auto w = MakeWeights(rng, dim);
    const double got =
        kernels::GatherDot(w.data(), dim, s.ids.data(), s.vals.data(),
                           s.ids.size());
    const double want =
        RefDot(w.data(), dim, s.ids.data(), s.vals.data(), s.ids.size());
    EXPECT_EQ(Bits(got), Bits(want)) << "trial " << trial;
  }
}

TEST(SparseKernelTest, SparseSparseDotBitParityRandomized) {
  Rng rng(6);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = MakeSparse(rng, rng.NextBounded(67), 400);
    const auto b = MakeSparse(rng, rng.NextBounded(67), 400);
    // Reference: hash-free quadratic match in a's order (ids unique &
    // sorted, so match order equals ascending id order — same as the merge).
    double want = 0.0;
    for (size_t i = 0; i < a.ids.size(); ++i) {
      for (size_t j = 0; j < b.ids.size(); ++j) {
        if (a.ids[i] == b.ids[j]) {
          want += static_cast<double>(a.vals[i]) *
                  static_cast<double>(b.vals[j]);
        }
      }
    }
    const double got =
        kernels::SparseSparseDot(a.ids.data(), a.vals.data(), a.ids.size(),
                                 b.ids.data(), b.vals.data(), b.ids.size());
    EXPECT_EQ(Bits(got), Bits(want)) << "trial " << trial;
  }
}

// The one-class SVM scatters x once and gathers each support vector's dot
// from it. An unmatched id adds a ±0 to a sum that starts at +0 and so is
// never -0, which leaves it unchanged: the gathered dot equals the sorted
// merge bit for bit, including ids past x's last one.
TEST(SparseKernelTest, GatherFromScatterMatchesSparseSparseDot) {
  Rng rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const auto x = MakeSparse(rng, rng.NextBounded(67), 400);
    const auto sv = MakeSparse(rng, rng.NextBounded(67), 400);
    std::vector<double> scatter(x.ids.empty() ? 0 : x.ids.back() + 1, 0.0);
    for (size_t i = 0; i < x.ids.size(); ++i) {
      scatter[x.ids[i]] = static_cast<double>(x.vals[i]);
    }
    const double got =
        kernels::GatherDot(scatter.data(), scatter.size(), sv.ids.data(),
                           sv.vals.data(), sv.ids.size());
    const double want = kernels::SparseSparseDot(
        sv.ids.data(), sv.vals.data(), sv.ids.size(), x.ids.data(),
        x.vals.data(), x.ids.size());
    EXPECT_EQ(Bits(got), Bits(want)) << "trial " << trial;
  }
}

TEST(SparseKernelTest, EdgeShapesEmptySingleUnaligned) {
  const std::vector<double> w = {0.5, -1.0, 0.0, 2.0, -0.0};
  // Empty.
  EXPECT_EQ(kernels::GatherDot(w.data(), w.size(), nullptr, nullptr, 0), 0.0);
  // Single entry.
  const uint32_t one_id[] = {1};
  const float one_val[] = {3.0f};
  EXPECT_EQ(kernels::GatherDot(w.data(), w.size(), one_id, one_val, 1), -3.0);
  // Unaligned lengths n = 1..7 against the reference.
  const uint32_t ids[] = {0, 1, 2, 3, 4, 5, 6};
  const float vals[] = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f};
  for (size_t n = 1; n <= 7; ++n) {
    EXPECT_EQ(Bits(kernels::GatherDot(w.data(), w.size(), ids, vals, n)),
              Bits(RefDot(w.data(), w.size(), ids, vals, n)))
        << n;
  }
}

// End-to-end through SparseVector/WeightVector (the production entry
// points) on randomized data — guards the wiring, not just the kernels.
TEST(SparseKernelTest, WeightVectorRoutesThroughKernelsConsistently) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = MakeSparse(rng, 1 + rng.NextBounded(40), 300);
    std::vector<SparseVector::Entry> entries;
    for (size_t i = 0; i < s.ids.size(); ++i) {
      entries.push_back({s.ids[i], s.vals[i]});
    }
    const SparseVector x = SparseVector::FromUnsorted(std::move(entries));
    WeightVector weights;
    const auto delta_src = MakeSparse(rng, 1 + rng.NextBounded(40), 300);
    for (size_t i = 0; i < delta_src.ids.size(); ++i) {
      weights.Add(delta_src.ids[i], 0.25 * delta_src.vals[i]);
    }
    const double dot = weights.Dot(x);
    double want = 0.0;
    for (const auto& [id, value] : x) {
      want += weights.Get(id) * static_cast<double>(value);
    }
    EXPECT_EQ(Bits(dot), Bits(want)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ie
