#include "update/update_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "ranking/learned_rankers.h"

namespace ie {
namespace {

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

// Stream whose useful documents use features [base, base+width).
std::vector<LabeledExample> Stream(size_t n, uint32_t base, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledExample> out;
  for (size_t i = 0; i < n; ++i) {
    const bool useful = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    const uint32_t offset = useful ? base : 500;
    for (int k = 0; k < 3; ++k) {
      entries.emplace_back(offset + rng.NextBounded(8), 1.0f);
    }
    SparseVector v = Vec(std::move(entries));
    v.Normalize();
    out.push_back({std::move(v), useful ? 1 : -1});
  }
  return out;
}

std::unique_ptr<RsvmIeRanker> TrainedRanker(
    const std::vector<LabeledExample>& sample) {
  auto ranker = std::make_unique<RsvmIeRanker>();
  ranker->TrainInitial(sample);
  return ranker;
}

// ---- NeverUpdate / Wind-F ----------------------------------------------

TEST(NeverUpdateTest, NeverTriggers) {
  NeverUpdateDetector detector;
  RsvmIeRanker ranker;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(detector.Observe(Vec({{0, 1.0f}}), true, ranker));
  }
}

TEST(WindFTest, TriggersAtExactInterval) {
  WindFDetector detector(10);
  RsvmIeRanker ranker;
  int triggers = 0;
  for (int i = 1; i <= 100; ++i) {
    const bool fired = detector.Observe(Vec({{0, 1.0f}}), false, ranker);
    EXPECT_EQ(fired, i % 10 == 0);
    triggers += fired;
  }
  EXPECT_EQ(triggers, 10);
}

// Interval 0 (PipelineConfig::windf_updates = 0) means "never fires"; the
// per-document modulo must not divide by it.
TEST(WindFTest, ZeroIntervalNeverTriggers) {
  WindFDetector detector(0);
  RsvmIeRanker ranker;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(detector.Observe(Vec({{0, 1.0f}}), true, ranker));
  }
}

// ---- Top-K ------------------------------------------------------------

TEST(TopKTest, ShiftTriggersMoreThanSteadyStream) {
  auto run = [](uint32_t continuation_base) {
    const auto sample = Stream(200, 0, 1);
    auto ranker = TrainedRanker(sample);
    TopKDetector detector;
    // Warm the side classifier on the reference distribution.
    for (const auto& ex : sample) {
      detector.Observe(ex.features, ex.label > 0, *ranker);
    }
    detector.OnModelUpdated(*ranker, sample);
    double max_distance = 0.0;
    for (const auto& ex : Stream(150, continuation_base, 2)) {
      detector.Observe(ex.features, ex.label > 0, *ranker);
      max_distance = std::max(max_distance, detector.LastStatistic());
    }
    return max_distance;
  };
  const double steady = run(0);      // same distribution
  const double shifted = run(100);   // new useful-feature block
  EXPECT_GT(shifted, steady);
}

TEST(TopKTest, DistributionShiftTriggers) {
  const auto sample = Stream(200, 0, 1);
  auto ranker = TrainedRanker(sample);
  TopKDetector detector;
  for (const auto& ex : sample) {
    detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  detector.OnModelUpdated(*ranker, sample);
  // Useful documents switch to an entirely new feature block.
  int triggers = 0;
  for (const auto& ex : Stream(300, 100, 3)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_GT(triggers, 0);
  EXPECT_GT(detector.LastStatistic(), 0.0);
}

// ---- Mod-C ------------------------------------------------------------

TEST(ModCTest, RequiresOnModelUpdatedFirst) {
  ModCDetector detector;
  RsvmIeRanker ranker;
  EXPECT_FALSE(detector.Observe(Vec({{0, 1.0f}}), true, ranker));
}

TEST(ModCTest, SteadyStreamKeepsAngleSmall) {
  const auto sample = Stream(300, 0, 5);
  auto ranker = TrainedRanker(sample);
  ModCDetector detector({.rho = 0.5, .alpha_degrees = 25.0}, 7);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(200, 0, 6)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_EQ(triggers, 0);
}

TEST(ModCTest, ShiftedStreamGrowsAngleAndTriggers) {
  const auto sample = Stream(300, 0, 5);
  auto ranker = TrainedRanker(sample);
  ModCDetector detector({.rho = 1.0, .alpha_degrees = 2.0}, 7);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(400, 100, 8)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_GT(triggers, 0);
  EXPECT_GT(detector.LastStatistic(), 0.0);
}

TEST(ModCTest, RhoZeroNeverFeedsShadow) {
  const auto sample = Stream(100, 0, 5);
  auto ranker = TrainedRanker(sample);
  ModCDetector detector({.rho = 0.0, .alpha_degrees = 0.001}, 7);
  detector.OnModelUpdated(*ranker, sample);
  for (const auto& ex : Stream(100, 100, 9)) {
    EXPECT_FALSE(detector.Observe(ex.features, ex.label > 0, *ranker));
  }
}

// ---- Feat-S ------------------------------------------------------------

TEST(FeatSTest, NoCheckBeforeMinDocs) {
  FeatSOptions options;
  options.min_docs_between_checks = 1000;
  FeatSDetector detector(options);
  const auto sample = Stream(50, 0, 11);
  auto ranker = TrainedRanker(sample);
  detector.OnModelUpdated(*ranker, sample);
  for (const auto& ex : Stream(500, 100, 12)) {
    EXPECT_FALSE(detector.Observe(ex.features, ex.label > 0, *ranker));
  }
}

TEST(FeatSTest, ShiftedDistributionTriggers) {
  FeatSOptions options;
  options.min_docs_between_checks = 50;
  options.window = 50;
  FeatSDetector detector(options);
  const auto sample = Stream(200, 0, 13);
  auto ranker = TrainedRanker(sample);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(200, 300, 14)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_GT(triggers, 0);
  EXPECT_GT(detector.LastStatistic(), 0.5);
}

TEST(FeatSTest, InDistributionStreamQuiet) {
  FeatSOptions options;
  options.min_docs_between_checks = 50;
  options.window = 50;
  // A conservative margin keeps in-distribution inlier rates well above
  // the trigger threshold (the production default of 0.45 is calibrated
  // for the noisier real pipeline streams).
  options.margin_quantile = 0.15;
  FeatSDetector detector(options);
  const auto sample = Stream(300, 0, 15);
  auto ranker = TrainedRanker(sample);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(300, 0, 16)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_EQ(triggers, 0);
}

// A margin quantile outside [0, 1] reads as its clamp, and NaN as 0, so
// the margin index stays inside the sorted decisions: 1.5 and +inf used to
// read past the end, and -0.5 and NaN cast a negative or NaN to size_t.
TEST(FeatSTest, MarginQuantileIsClampedIntoUnitInterval) {
  const auto sample = Stream(200, 0, 17);
  auto ranker = TrainedRanker(sample);
  const auto stream = Stream(300, 0, 18);
  auto shifts = [&](double quantile) {
    FeatSOptions options;
    options.min_docs_between_checks = 25;
    options.window = 25;
    options.margin_quantile = quantile;
    FeatSDetector detector(options);
    detector.OnModelUpdated(*ranker, sample);
    std::vector<double> out;
    for (const auto& ex : stream) {
      detector.Observe(ex.features, ex.label > 0, *ranker);
      out.push_back(detector.LastStatistic());
    }
    return out;
  };
  const std::vector<double> at_zero = shifts(0.0);
  const std::vector<double> at_one = shifts(1.0);
  ASSERT_NE(at_zero, at_one);  // the two ends are told apart
  EXPECT_EQ(shifts(-0.5), at_zero);
  EXPECT_EQ(shifts(std::nan("")), at_zero);
  EXPECT_EQ(shifts(1.5), at_one);
  EXPECT_EQ(shifts(HUGE_VAL), at_one);
}

}  // namespace
}  // namespace ie
