// Synchronization primitives for simulated processes: broadcast events,
// bounded-nothing channels (mailboxes), and fan-out/fan-in helpers.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/simulation.hpp"
#include "src/sim/task.hpp"

namespace c4h::sim {

/// One-shot (resettable) broadcast event. Waiters resume, in wait order, at
/// the simulated time fire() is called.
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

  void reset() { fired_ = false; }

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

/// Unbounded FIFO channel (mailbox). Multiple producers, multiple consumers;
/// each item goes to exactly one consumer, in arrival order.
template <typename T>
class Channel {
  struct PopAwaiter;

 public:
  explicit Channel(Simulation& sim) : sim_(&sim) {}

  /// Hands the item to the oldest parked consumer, if any, else queues it.
  /// The hand-off is direct: a ready pop() that runs before the woken
  /// consumer resumes must not take the item that woke it.
  void push(T item) {
    if (waiters_.empty()) {
      items_.push_back(std::move(item));
      return;
    }
    PopAwaiter* w = waiters_.front();
    waiters_.pop_front();
    w->handed.emplace(std::move(item));
    sim_->schedule(Duration::zero(), [h = w->handle] { h.resume(); });
  }

  /// Queued items not yet handed to a consumer.
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// co_await pop() — suspends until an item is available.
  PopAwaiter pop() { return PopAwaiter{*this}; }

 private:
  // Lives in the awaiting coroutine's frame until it resumes, so push() may
  // hold a pointer to it while it is parked.
  struct PopAwaiter {
    Channel& ch;
    std::optional<T> handed{};
    std::coroutine_handle<> handle{};

    bool await_ready() const { return !ch.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.waiters_.push_back(this);
    }
    T await_resume() {
      if (handed.has_value()) return std::move(*handed);
      T v = std::move(ch.items_.front());
      ch.items_.pop_front();
      return v;
    }
  };

  Simulation* sim_;
  std::deque<T> items_;  // non-empty only while no consumer is parked
  std::deque<PopAwaiter*> waiters_;
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
