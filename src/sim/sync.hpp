// Synchronization primitives for simulated processes: a one-shot broadcast
// event and the when_all fan-out/fan-in helper built on it.
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "src/sim/simulation.hpp"
#include "src/sim/task.hpp"

namespace c4h::sim {

/// One-shot broadcast event. Waiters resume, in wait order, at the simulated
/// time fire() is called.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) {
      sim_->schedule(Duration::zero(), [h] { h.resume(); });
    }
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() { return ev.fired_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation* sim_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

namespace detail {

struct JoinState {
  std::size_t remaining;
  Event done;
  JoinState(Simulation& sim, std::size_t n) : remaining(n), done(sim) {}
};

inline Task<> run_and_count(Task<> t, std::shared_ptr<JoinState> st) {
  co_await t;
  if (--st->remaining == 0) st->done.fire();
}

}  // namespace detail

/// Runs all tasks concurrently; completes when every one has finished.
inline Task<> when_all(Simulation& sim, std::vector<Task<>> tasks) {
  if (tasks.empty()) co_return;
  auto st = std::make_shared<detail::JoinState>(sim, tasks.size());
  for (auto& t : tasks) {
    sim.spawn(detail::run_and_count(std::move(t), st));
  }
  co_await st->done.wait();
}

}  // namespace c4h::sim
