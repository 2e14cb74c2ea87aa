// Deterministic fault injection ("chaos") for the whole stack.
//
// A FaultPlan is installed on the Simulation and consulted inline by the
// layers: net::Network asks whether to drop / duplicate / delay each
// control message, vstore::ObjectFs whether to fail an IO with io_error or
// a spurious bin-full, and the churn scheduler drives node crash/restart
// and uplink-flap events through caller-provided hooks (so sim stays
// ignorant of overlay/cloud types). Every decision is drawn from the
// plan's own Rng, forked from the simulation seed, so a given seed always
// produces the identical fault schedule — chaos runs are replayable
// bit-for-bit.
//
// Injection stops once the plan's horizon passes (restarts still complete),
// which lets a chaotic run settle so invariants can be checked.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/task.hpp"

namespace c4h::sim {

struct FaultSpec {
  // --- message-level faults (consulted by net::Network) -------------------
  double msg_drop = 0.0;       // P(message lost in flight)
  double msg_duplicate = 0.0;  // P(message delivered twice)
  double msg_delay = 0.0;      // P(message held up in a queue)
  Duration max_extra_delay = milliseconds(80);
  Duration loss_detection = milliseconds(250);  // sender's retransmit timer

  // --- storage faults (consulted by vstore::ObjectFs) ---------------------
  double io_error = 0.0;  // P(read/write fails with io_error)
  double bin_full = 0.0;  // P(write spuriously reports no_capacity)

  // --- scheduled churn: node crash/restart and uplink flaps ---------------
  Duration mean_crash_interval = seconds(20);  // exponential inter-crash gap
  Duration mean_downtime = seconds(5);         // crash → restart delay
  Duration mean_flap_interval = seconds(30);   // exponential inter-flap gap
  Duration mean_flap_duration = seconds(3);    // uplink-down window
  Duration horizon = seconds(60);              // no new faults after this
};

struct FaultStats {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t bin_full = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t uplink_flaps = 0;
};

/// What happens to one in-flight message.
struct MessageFault {
  bool drop = false;
  bool duplicate = false;
  Duration extra_delay{};
};

/// Hooks the churn scheduler drives. Any unset hook disables that fault
/// class. `crash` may refuse a victim (already down, or a safety floor like
/// "keep at least replication+1 nodes live") by returning false; a refused
/// crash schedules no restart.
struct ChurnHooks {
  std::function<std::size_t()> victim_count;
  std::function<bool(std::size_t)> crash;
  std::function<void(std::size_t)> restart;
  std::function<void(bool)> uplink_down;  // true = flap down, false = restore
};

class FaultPlan {
 public:
  FaultPlan(Simulation& sim, FaultSpec spec)
      : sim_(sim), spec_(spec), deadline_(sim.now() + spec.horizon), rng_(sim.rng().fork()) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  const FaultSpec& spec() const { return spec_; }
  const FaultStats& stats() const { return stats_; }
  TimePoint deadline() const { return deadline_; }

  /// True while faults are being injected.
  bool active() const { return armed_ && sim_.now() < deadline_; }

  /// Manual kill switch (verification phases disarm before re-reading).
  void disarm() { armed_ = false; }
  void arm() { armed_ = true; }

  /// Samples the fate of one in-flight message. Drop wins over the other
  /// fault classes (a dropped duplicate is indistinguishable from a drop).
  MessageFault message_fault() {
    MessageFault f;
    if (!active()) return f;
    if (spec_.msg_drop > 0 && rng_.chance(spec_.msg_drop)) {
      f.drop = true;
      ++stats_.messages_dropped;
      return f;
    }
    if (spec_.msg_duplicate > 0 && rng_.chance(spec_.msg_duplicate)) {
      f.duplicate = true;
      ++stats_.messages_duplicated;
    }
    if (spec_.msg_delay > 0 && rng_.chance(spec_.msg_delay)) {
      f.extra_delay = from_seconds(rng_.uniform(0.0, to_seconds(spec_.max_extra_delay)));
      ++stats_.messages_delayed;
    }
    return f;
  }

  bool inject_io_error() {
    if (!active() || spec_.io_error <= 0 || !rng_.chance(spec_.io_error)) return false;
    ++stats_.io_errors;
    return true;
  }

  bool inject_bin_full() {
    if (!active() || spec_.bin_full <= 0 || !rng_.chance(spec_.bin_full)) return false;
    ++stats_.bin_full;
    return true;
  }

  /// Starts the crash/restart and uplink-flap schedulers as detached
  /// coroutines on the simulation. Both exit once the horizon passes;
  /// restarts for crashes injected near the horizon still fire, so every
  /// crashed node eventually heals.
  void start_churn(ChurnHooks hooks) {
    hooks_ = std::move(hooks);
    if (hooks_.victim_count && hooks_.crash) sim_.spawn(crash_loop());
    if (hooks_.uplink_down) sim_.spawn(flap_loop());
  }

 private:
  Duration exp_sample(Duration mean) {
    return from_seconds(rng_.exponential(to_seconds(mean)));
  }

  Task<> crash_loop() {
    for (;;) {
      co_await sim_.delay(exp_sample(spec_.mean_crash_interval));
      if (!active()) co_return;
      const std::size_t n = hooks_.victim_count();
      if (n == 0) continue;
      const auto victim = static_cast<std::size_t>(rng_.below(n));
      const Duration downtime = exp_sample(spec_.mean_downtime);  // drawn unconditionally:
      // the rng stream position stays a pure function of the schedule, not
      // of whether the hook accepted the victim.
      if (!hooks_.crash(victim)) continue;
      ++stats_.crashes;
      if (hooks_.restart) {
        sim_.schedule(downtime, [this, victim] {
          ++stats_.restarts;
          hooks_.restart(victim);
        });
      }
    }
  }

  Task<> flap_loop() {
    for (;;) {
      co_await sim_.delay(exp_sample(spec_.mean_flap_interval));
      if (!active()) co_return;
      ++stats_.uplink_flaps;
      hooks_.uplink_down(true);
      co_await sim_.delay(exp_sample(spec_.mean_flap_duration));
      hooks_.uplink_down(false);
    }
  }

  Simulation& sim_;
  FaultSpec spec_;
  TimePoint deadline_;
  Rng rng_;
  FaultStats stats_;
  ChurnHooks hooks_;
  bool armed_ = true;
};

/// Creates a FaultPlan owned by `sim` and returns a reference to it.
inline FaultPlan& install_fault_plan(Simulation& sim, FaultSpec spec) {
  auto plan = std::make_shared<FaultPlan>(sim, spec);
  FaultPlan& ref = *plan;
  sim.set_fault_plan(std::move(plan));
  return ref;
}

}  // namespace c4h::sim
