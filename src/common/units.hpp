// Time, size, and rate units used throughout Cloud4Home.
//
// Simulated time is integral nanoseconds (std::chrono::nanoseconds) so that
// the discrete-event engine is deterministic and free of floating-point
// accumulation drift. Rates are double bytes/second because they are the
// output of the fair-share solver, not part of the clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace c4h {

using Duration = std::chrono::nanoseconds;
using TimePoint = std::chrono::nanoseconds;  // time since simulation start

constexpr Duration nanoseconds(std::int64_t n) { return Duration{n}; }
constexpr Duration microseconds(std::int64_t n) { return Duration{n * 1000}; }
constexpr Duration milliseconds(std::int64_t n) { return Duration{n * 1000000}; }
constexpr Duration seconds(std::int64_t n) { return Duration{n * 1000000000}; }

/// Converts a duration to floating-point seconds (for rate arithmetic).
constexpr double to_seconds(Duration d) { return static_cast<double>(d.count()) * 1e-9; }

/// Converts floating-point seconds to the integral simulated duration,
/// rounding up so that "work remaining" never completes early.
constexpr Duration from_seconds(double s) {
  const double ns = s * 1e9;
  auto n = static_cast<std::int64_t>(ns);
  if (static_cast<double>(n) < ns) ++n;
  return Duration{n};
}

constexpr double to_milliseconds(Duration d) { return static_cast<double>(d.count()) * 1e-6; }

using Bytes = std::uint64_t;

constexpr Bytes operator""_B(unsigned long long v) { return v; }
constexpr Bytes operator""_KB(unsigned long long v) { return v * 1024; }
constexpr Bytes operator""_MB(unsigned long long v) { return v * 1024 * 1024; }
constexpr Bytes operator""_GB(unsigned long long v) { return v * 1024 * 1024 * 1024; }

constexpr double to_mib(Bytes b) { return static_cast<double>(b) / (1024.0 * 1024.0); }

/// Bandwidth / service rates, in bytes per second.
using Rate = double;

constexpr Rate mbps(double megabits_per_second) { return megabits_per_second * 1e6 / 8.0; }
constexpr Rate mib_per_sec(double v) { return v * 1024.0 * 1024.0; }
constexpr double to_mib_per_sec(Rate r) { return r / (1024.0 * 1024.0); }

/// Time needed to move `size` bytes at `rate` bytes/sec.
constexpr Duration transfer_time(Bytes size, Rate rate) {
  return from_seconds(static_cast<double>(size) / rate);
}

}  // namespace c4h
