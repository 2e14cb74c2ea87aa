// Statistics accumulators used to report experiment results (latency means,
// standard deviations for the paper's error bars, percentiles, histograms).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

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

/// Sample-retaining accumulator for exact percentiles.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return xs_.size(); }

  double mean() const {
    if (xs_.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs_) s += x;
    return s / static_cast<double>(xs_.size());
  }

  double stddev() const {
    if (xs_.size() < 2) return 0.0;
    const double m = mean();
    double s2 = 0.0;
    for (double x : xs_) s2 += (x - m) * (x - m);
    return std::sqrt(s2 / static_cast<double>(xs_.size() - 1));
  }

  /// p in [0, 100]; nearest-rank percentile.
  double percentile(double p) {
    assert(!xs_.empty());
    sort();
    const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
  }

  double min() {
    sort();
    return xs_.empty() ? 0.0 : xs_.front();
  }
  double max() {
    sort();
    return xs_.empty() ? 0.0 : xs_.back();
  }

 private:
  void sort() {
    if (!sorted_) {
      std::sort(xs_.begin(), xs_.end());
      sorted_ = true;
    }
  }

  std::vector<double> xs_;
  bool sorted_ = true;
};

/// Fixed-width linear histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {
    assert(hi > lo && buckets > 0);
  }

  void add(double x) {
    ++total_;
    if (x < lo_) {
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                            static_cast<double>(counts_.size()));
    ++counts_[std::min(i, counts_.size() - 1)];
  }

  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  double bucket_low(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
  }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace c4h
