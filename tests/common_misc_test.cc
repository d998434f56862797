#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace ie {
namespace {

// ---- string_util -----------------------------------------------------

TEST(SplitStringTest, BasicSplit) {
  const auto pieces = SplitString("a b c", " ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "c");
}

TEST(SplitStringTest, DropsEmptyPieces) {
  const auto pieces = SplitString("  a   b  ", " ");
  ASSERT_EQ(pieces.size(), 2u);
}

TEST(SplitStringTest, MultipleDelimiters) {
  const auto pieces = SplitString("a,b;c", ",;");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "b");
}

TEST(SplitStringTest, EmptyInput) {
  EXPECT_TRUE(SplitString("", " ").empty());
}

TEST(SplitStringTest, NoDelimiter) {
  const auto pieces = SplitString("abc", " ");
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "abc");
}

TEST(StrFormatTest, Formats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

TEST(AppendJsonStringTest, EscapesQuotesBackslashesAndControls) {
  std::string out = "x=";
  AppendJsonString(&out, "a\"b\\c\nd\x01" "e");
  EXPECT_EQ(out, "x=\"a\\\"b\\\\c\\u000ad\\u0001e\"");
  out.clear();
  AppendJsonString(&out, "\xc3\xa9t\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x8c\x8b");
  EXPECT_EQ(out, "\"\xc3\xa9t\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x8c\x8b\"");
  out.clear();
  AppendJsonString(&out, "");
  EXPECT_EQ(out, "\"\"");
}

// ---- stats -------------------------------------------------------------

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, TracksMinAndMax) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);  // empty → 0 for stable JSON
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
  for (double x : {4.0, -2.0, 9.0, 3.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.min(), -2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(MeanStdDevTest, VectorHelpers) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({1.0, 2.0, 3.0}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
}

// ---- timers ------------------------------------------------------------

TEST(TimerTest, WallTimerAdvances) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

TEST(TimerTest, CpuTimerMeasuresWork) {
  CpuTimer timer;
  volatile double sink = 0.0;
  // Spin until the thread-CPU clock visibly advances (bounded iterations).
  for (long i = 0; i < 200000000 && timer.ElapsedSeconds() <= 0.0; ++i) {
    sink = sink + static_cast<double>(i) * 1e-9;
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
}

// ---- ParallelFor edge cases -------------------------------------------

TEST(ParallelForEdgeTest, ZeroIterationsNeverCallsFn) {
  ParallelFor(0, 4, [](size_t) { FAIL() << "fn called for n=0"; });
  ParallelFor(0, 0, [](size_t) { FAIL() << "fn called for n=0"; });
}

TEST(ParallelForEdgeTest, SingleIteration) {
  size_t calls = 0;
  ParallelFor(1, 8, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForEdgeTest, ZeroThreadsRunsSerially) {
  // threads=0 must behave like a serial loop, not spawn-nothing-and-skip.
  std::vector<int> hits(10, 0);
  ParallelFor(10, 0, [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ParallelForEdgeTest, SmallNFallsBackToSerial) {
  // n < 2*threads runs on the calling thread; verify by observing strictly
  // increasing order, which threads would not guarantee.
  std::vector<size_t> order;
  ParallelFor(7, 4, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 7u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForEdgeTest, SlotWritesAreDeterministic) {
  // Each index writes only its own slot, so two runs must agree exactly.
  const size_t n = 4096;
  std::vector<uint64_t> a(n), b(n);
  auto fill = [](std::vector<uint64_t>& out) {
    return [&out](size_t i) { out[i] = i * 2654435761u + 17; };
  };
  ParallelFor(n, 8, fill(a));
  ParallelFor(n, 3, fill(b));
  EXPECT_EQ(a, b);
}

TEST(ParallelForEdgeTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1031;  // prime: exercises a ragged final block
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ParallelForEdgeTest, SerialExceptionPropagates) {
  EXPECT_THROW(
      ParallelFor(5, 1,
                  [](size_t i) {
                    if (i == 3) throw std::runtime_error("serial boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForEdgeTest, WorkerExceptionRethrownAfterJoin) {
  // A throwing fn must not reach std::terminate; the exception surfaces on
  // the calling thread and every worker is joined first.
  std::atomic<size_t> visited{0};
  try {
    ParallelFor(100, 4, [&](size_t i) {
      if (i == 50) throw std::runtime_error("worker boom");
      visited.fetch_add(1);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "worker boom");
  }
  // Only the throwing worker abandons its block; the other three blocks of
  // 25 complete in full.
  EXPECT_GE(visited.load(), 75u);
  EXPECT_LT(visited.load(), 100u);
}

TEST(ParallelForEdgeTest, FirstExceptionByWorkerOrderWins) {
  // Workers 0 and 2 both throw; the rethrow must be worker 0's (stable
  // selection, not a race on "whoever throws first").
  for (int round = 0; round < 20; ++round) {
    try {
      ParallelFor(100, 4, [](size_t i) {
        if (i == 10) throw std::runtime_error("block0");   // worker 0
        if (i == 60) throw std::runtime_error("block2");   // worker 2
      });
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "block0");
    }
  }
}

// ---- logging -----------------------------------------------------------

TEST(LoggingTest, WarningCarriesLevelFileAndLinePrefix) {
  std::ostringstream captured;
  std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
  const int line = __LINE__ + 1;
  IE_LOG(kWarn) << "ledger " << 3 << " unwritable";
  std::cerr.rdbuf(saved);
  EXPECT_EQ(captured.str(), "[WARN common_misc_test.cc:" +
                                std::to_string(line) +
                                "] ledger 3 unwritable\n");
}

TEST(LoggingTest, CheckPassesOnTrue) {
  IE_CHECK(1 + 1 == 2);  // must not abort
}

}  // namespace
}  // namespace ie
