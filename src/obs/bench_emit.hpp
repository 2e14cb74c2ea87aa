// Machine-readable bench artifacts.
//
// Every experiment binary emits `BENCH_<name>.json` next to its human table
// so CI can archive a perf trajectory across PRs. Schema `c4h-bench-v1`
// (DESIGN.md §10):
//
//   {
//     "schema": "c4h-bench-v1",
//     "bench": "<binary name>",
//     "seed": <uint>,
//     "run_id": <uint>,              // splitmix64 of the seed
//     "meta": { "<key>": "<value>", ... },
//     "series": [
//       {"label": "...", "metric": "...", "value": <number>, "unit": "..."},
//       ...
//     ]
//   }
//
// Keys are emitted in a fixed order and `meta`/`series` preserve insertion
// order, so two runs of the same seed produce byte-identical files.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.hpp"

namespace c4h::obs {

class LogHistogram;  // metrics.hpp

struct BenchPoint {
  std::string label;   // row / series key, e.g. "10MB" or "home_vs_remote"
  std::string metric;  // measured quantity, e.g. "fetch.total"
  double value = 0.0;
  std::string unit;    // "ms", "MiB/s", "count", ...
};

class BenchReport {
 public:
  BenchReport(std::string bench, std::uint64_t seed);

  /// Free-form run metadata ("quick" → "true", config knobs, ...).
  void meta(std::string key, std::string value);

  void add(std::string label, std::string metric, double value, std::string unit);

  const std::vector<BenchPoint>& series() const { return series_; }

  /// The full document, deterministically serialized.
  std::string json() const;

  /// Writes `<dir>/BENCH_<bench>.json`; returns the path written.
  Result<std::string> write(const std::string& dir = ".") const;

 private:
  std::string bench_;
  std::uint64_t seed_;
  std::uint64_t run_id_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<BenchPoint> series_;
};

/// Appends the tail-latency rows for one histogram whose samples are
/// nanoseconds: `<metric>.count`, `.mean`, `.p50`, `.p99`, `.p999` (times in
/// ms). Quantiles are LogHistogram bucket lower bounds — deterministic,
/// integer-only, ≤2× relative error — so same-seed runs emit byte-identical
/// tails. This is the c4h-bench-v1 extension the workload scenarios use:
/// tails, not means, are the tracked production numbers (DESIGN.md §11).
void add_latency_tails(BenchReport& report, const std::string& label,
                       const std::string& metric, const LogHistogram& h);

}  // namespace c4h::obs
