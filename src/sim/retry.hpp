// Bounded retry with exponential backoff and jitter.
//
// The hardened operation paths (KV put/get/erase, VStore++ fetch, the
// process path's wait for a crashed argument owner) retry transient failures
// — lost request messages, owners that crashed mid-operation, routes that
// momentarily have no live next hop — with exponentially growing, jittered
// pauses, and give up after kMaxAttempts attempts. Jitter is drawn from a
// caller-supplied Rng after each failed attempt, so retry timing is
// deterministic for a given simulation seed.
#pragma once

#include <cassert>
#include <cmath>

#include "src/common/result.hpp"
#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/task.hpp"

namespace c4h::sim {

/// Failures worth retrying: transient routing / availability / timeout
/// conditions (and injected IO hiccups). Semantic failures — not_found,
/// already_exists, permission_denied — must surface unchanged.
[[nodiscard]] constexpr bool transient(Errc c) {
  return c == Errc::timeout || c == Errc::unavailable || c == Errc::no_route ||
         c == Errc::io_error;
}

/// Total tries, including the first.
inline constexpr int kMaxAttempts = 4;

/// Pause after failed attempt `n` (1-based): 50 ms · 2^(n−1), times a
/// uniform ±20 % jitter drawn from `rng`.
[[nodiscard]] inline Duration backoff(int n, Rng& rng) {
  assert(n >= 1);
  constexpr double kJitter = 0.2;
  const double nominal = to_seconds(milliseconds(50)) * std::pow(2.0, n - 1);
  return from_seconds(nominal * rng.uniform(1.0 - kJitter, 1.0 + kJitter));
}

/// Runs `attempt()` (which returns a Task<R>) until its result is ok, its
/// error is not transient, or kMaxAttempts attempts have run. After failed
/// attempt n it calls `on_retry()`, then waits backoff(n, rng). Returns the
/// last result, so a transient error comes back only once the attempts are
/// exhausted.
template <typename R, typename Attempt, typename OnRetry>
Task<R> retry(Simulation& sim, Rng& rng, Attempt attempt, OnRetry on_retry) {
  for (int n = 1;; ++n) {
    R res = co_await attempt();
    if (res.ok() || !transient(res.code()) || n == kMaxAttempts) co_return res;
    on_retry();
    co_await sim.delay(backoff(n, rng));
  }
}

}  // namespace c4h::sim
