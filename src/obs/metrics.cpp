#include "src/obs/metrics.hpp"

#include <algorithm>

namespace c4h::obs {

std::uint64_t LogHistogram::quantile(double p) const {
  if (total_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the k-th smallest value with k = ceil(p/100 * n), at
  // least 1 so p=0 reports the minimum's bucket.
  const double exact = p / 100.0 * static_cast<double>(total_);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen >= rank) return bucket_low(i);
  }
  return bucket_low(kBuckets - 1);
}

void LogHistogram::merge(const LogHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    counts_[static_cast<std::size_t>(i)] += other.counts_[static_cast<std::size_t>(i)];
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace(name, c->value());
  return s;
}

}  // namespace c4h::obs
