// ParallelFor (common/parallel.h): every index runs once, serial
// fallback, and ranges smaller than the thread count or empty.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/parallel.h"

namespace ie {
namespace {

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SerialFallback) {
  std::vector<int> hits(50, 0);
  ParallelFor(50, 1, [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(ParallelForTest, SmallNDegeneratesToSerial) {
  std::vector<int> hits(3, 0);
  ParallelFor(3, 8, [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(0, 4, [](size_t) { FAIL(); });
}

}  // namespace
}  // namespace ie
