// Deterministic random number generation for simulations and workloads.
//
// xoshiro256** with splitmix64 seeding. Distribution sampling is implemented
// here (not via <random> distributions) so results are bit-identical across
// standard-library implementations — experiments must be reproducible from a
// seed alone.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace c4h {

/// One splitmix64 step: advances `x` by the golden gamma and mixes it.
/// Spreads a (possibly small) seed over 64 well-mixed bits.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // A splitmix64 stream spreads the seed over the full state.
    for (auto& s : s_) {
      s = splitmix64(seed);
      seed += 0x9E3779B97F4A7C15ull;
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    assert(n > 0);
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(next()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Box–Muller (fresh pair each call; no cached spare,
  /// keeping the stream position a pure function of call count).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Lognormal with the given *underlying* normal parameters.
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  /// Lognormal scaled so its mean is `mean` with shape `sigma`.
  double lognormal_mean(double mean, double sigma) {
    return lognormal(std::log(mean) - 0.5 * sigma * sigma, sigma);
  }

  double exponential(double mean) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// Zipf-distributed rank in [0, n) with exponent `s` (inverse-CDF over a
  /// precomputed table is the caller's job for hot paths; this is O(n) worst
  /// case via rejection-free cumulative walk and fine for workload setup).
  std::uint64_t zipf(std::uint64_t n, double s) {
    assert(n > 0);
    // Normalization constant.
    double h = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) h += 1.0 / std::pow(static_cast<double>(k), s);
    double u = uniform() * h;
    for (std::uint64_t k = 1; k <= n; ++k) {
      u -= 1.0 / std::pow(static_cast<double>(k), s);
      if (u <= 0.0) return k - 1;
    }
    return n - 1;
  }

  /// Derives an independent child generator (for per-node streams).
  Rng fork() { return Rng{next()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace c4h
