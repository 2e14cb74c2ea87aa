// Streaming moments used to report experiment results: means, the standard
// deviations behind the paper's error bars, min and max. Percentiles come
// from obs::LogHistogram (src/obs/metrics.hpp), the one quantile
// implementation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace c4h {

/// Streaming mean / variance (Welford) with min/max. O(1) memory.
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace c4h
