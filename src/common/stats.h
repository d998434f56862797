// Small statistics helpers shared by the evaluation harness and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace ie {

/// Online mean/variance accumulator (Welford) with min/max tracking.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Smallest/largest sample seen; 0 when empty (stable JSON output).
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean of a vector; 0 when empty.
double Mean(const std::vector<double>& xs);

/// Sample standard deviation; 0 for fewer than two elements.
double StdDev(const std::vector<double>& xs);

}  // namespace ie
