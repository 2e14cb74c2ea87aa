// Metrics: named counters in a registry, and the log-linear histogram that
// the layers' stats structs hold their latencies in.
//
// Naming convention (DESIGN.md §10): `c4h.<layer>.<op>.<stat>`. Hot paths
// register once and keep the returned pointer, so recording is a single
// increment; the registry's map is ordered, so snapshots enumerate in a
// stable order regardless of registration history. Only counters that
// something reads are registered.
//
// LogHistogram is the repo's one percentile implementation. It is
// log-linear (HDR-style): values 0–63 each have their own bucket, and every
// power-of-two range [2^e, 2^(e+1)) with e ≥ 6 is split into 32 equal
// sub-buckets, so 1920 buckets cover every uint64_t. A quantile reports the
// lower bound of the sub-bucket holding the nearest-rank value: never above
// the exact value, exact below 64, and less than 1/32 (3.125%) below it
// otherwise. It is integer-only, mergeable and deterministic.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace c4h::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 5;  // 32 linear sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // 64 single-value buckets, then kSubBuckets for each shift 1..58: 1920.
  static constexpr int kBuckets = (65 - kSubBucketBits) * kSubBuckets;

  /// Values below 2·kSubBuckets are their own index. Above, the shift drops
  /// all but the top kSubBucketBits + 1 bits, so `v >> shift` lies in
  /// [kSubBuckets, 2·kSubBuckets) and each shift owns kSubBuckets indices.
  static int bucket_index(std::uint64_t v) {
    const int shift = std::max(0, static_cast<int>(std::bit_width(v)) - (kSubBucketBits + 1));
    return (shift << kSubBucketBits) + static_cast<int>(v >> shift);
  }
  /// Smallest value the bucket can hold; bucket_index(bucket_low(i)) == i.
  static std::uint64_t bucket_low(int i) {
    const int shift = std::max(0, (i >> kSubBucketBits) - 1);
    return static_cast<std::uint64_t>(i - (shift << kSubBucketBits)) << shift;
  }

  void record(std::uint64_t v) {
    ++counts_[static_cast<std::size_t>(bucket_index(v))];
    ++total_;
    sum_ += v;
  }

  std::uint64_t count() const { return total_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t bucket(int i) const { return counts_.at(static_cast<std::size_t>(i)); }
  double mean() const {
    return total_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(total_);
  }

  /// p in [0, 100]. Nearest-rank over buckets; returns the lower bound of
  /// the bucket holding the rank-th smallest recorded value (0 when empty).
  std::uint64_t quantile(double p) const;

  /// Element-wise accumulation (combining per-node histograms).
  void merge(const LogHistogram& other);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

/// A point-in-time copy of every counter.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns (registering on first use) the named counter. References remain
  /// valid for the registry's lifetime.
  Counter& counter(const std::string& name);

  Snapshot snapshot() const;

 private:
  // unique_ptr for address stability across rebalancing inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace c4h::obs
