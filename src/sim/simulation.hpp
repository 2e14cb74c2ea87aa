// Discrete-event simulation engine.
//
// A single time-ordered queue of callbacks drives everything: coroutine
// resumptions, periodic monitors, flow-completion events. Events at equal
// timestamps run in schedule order (FIFO), which makes every run
// deterministic for a given seed.
//
// Storage is the slab/free-list EventArena (event_arena.hpp): a callback is a
// trivially copyable callable of at most two words (EventCallback), held
// inline with no allocation; cancellation is O(1) via generation-tagged ids,
// and heavy cancel/reschedule churn — timeouts that almost never fire, the
// network's one flow event replaced on every re-solve — compacts instead of
// growing the heap. The equal-timestamp FIFO contract is unchanged from the
// previous map-based engine, byte for byte.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/sim/event_arena.hpp"
#include "src/sim/task.hpp"

namespace c4h::sim {

using c4h::Duration;
using c4h::TimePoint;

class FaultPlan;  // sim/fault.hpp; installed via install_fault_plan()

class Simulation;

/// What `co_await sim.delay(d)` suspends on: one event, `d` from now, that
/// resumes the awaiting coroutine. The event holds the coroutine's handle,
/// so the coroutine must stay suspended on it until it fires.
struct Delay {
  Simulation& sim;
  Duration d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

/// Handle for a scheduled callback; allows cancellation. Generation-tagged:
/// an id stays invalid forever once its event fired or was cancelled, even
/// after the underlying arena slot is recycled.
struct EventId {
  std::uint64_t id = 0;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  ~Simulation() {
    // Destroy still-suspended detached coroutines, in spawn order, so their
    // frames (and any RAII state inside) are released.
    for (detail::PromiseBase* p = detached_head_; p != nullptr;) {
      detail::PromiseBase* next = p->next_detached;
      auto& promise = static_cast<Task<>::promise_type&>(*p);  // spawn() takes Task<>
      std::coroutine_handle<Task<>::promise_type>::from_promise(promise).destroy();
      p = next;
    }
  }

  TimePoint now() const { return now_; }
  Rng& rng() { return rng_; }

  /// The installed chaos layer, or nullptr when fault injection is off.
  /// Layers consult this inline (message faults, IO faults); the plan's
  /// decisions come from an Rng forked off the simulation seed, so a seed
  /// fully determines the fault schedule.
  FaultPlan* fault() { return fault_.get(); }
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) { fault_ = std::move(plan); }

  /// Diagnostics for leak checks: live detached coroutine frames and
  /// pending (uncancelled) events.
  std::size_t detached_count() const { return detached_count_; }
  std::size_t pending_event_count() const { return events_.live_count(); }

  /// Queue entries including cancellation tombstones; bounded at a constant
  /// factor of pending_event_count() by arena compaction (tests assert it).
  std::size_t event_queue_size() const { return events_.heap_size(); }

  /// Events executed since construction (scaling benches report events/sec).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Schedules `fn` to run `delay` after now. delay must be >= 0. `fn` is
  /// copied as bytes, so it must be trivially copyable and at most two words:
  /// a coroutine handle, `this`, or `this` plus an index.
  template <typename F>
  EventId schedule(Duration delay, F&& fn) {
    static_assert(EventCallback<F>,
                  "schedule() takes a trivially copyable callable of at most two words");
    if (delay < Duration::zero()) delay = Duration::zero();
    return EventId{events_.schedule(now_ + delay, EventArena::Callback{std::forward<F>(fn)})};
  }

  /// Cancels a pending event. Safe to call with an already-fired id.
  void cancel(EventId ev) { events_.cancel(ev.id); }

  bool pending(EventId ev) const { return events_.pending(ev.id); }

  /// Runs one event. Returns false when the queue is empty.
  bool step() {
    TimePoint at;
    if (!events_.peek(at)) return false;
    EventArena::Callback fn;
    now_ = events_.take_earliest(fn);
    ++events_executed_;
    fn();
    return true;
  }

  /// Runs until no events remain.
  void run() {
    while (step()) {}
  }

  /// Runs events with timestamp <= `t`; advances the clock to exactly `t`.
  void run_until(TimePoint t) {
    TimePoint at;
    while (events_.peek(at) && at <= t) {
      step();
    }
    if (now_ < t) now_ = t;
  }

  /// Detaches a coroutine onto the event loop; it starts at the current
  /// time (after already-queued events at this time).
  void spawn(Task<> task) {
    auto h = task.release();
    detail::PromiseBase& p = h.promise();
    p.owner = this;
    p.prev_detached = detached_tail_;
    (detached_tail_ != nullptr ? detached_tail_->next_detached : detached_head_) = &p;
    detached_tail_ = &p;
    ++detached_count_;
    schedule(Duration::zero(), [h] { h.resume(); });
  }

  /// Runs the event loop until `task` completes (other events keep firing
  /// meanwhile). Use instead of run() when periodic processes (monitors,
  /// stabilization heartbeats) would keep the queue non-empty forever.
  void run_task(Task<> task) {
    // The marker frame co-owns the flag: if the task stalls forever and the
    // queue drains, run_task returns while the frame is still suspended — a
    // plain `bool&` to this stack slot would dangle on a later resume.
    auto done = std::make_shared<bool>(false);
    spawn(detail_mark_done(std::move(task), done));
    while (!*done && step()) {}
  }

  /// Awaitable pause: co_await sim.delay(d).
  Delay delay(Duration d) { return Delay{*this, d}; }

 private:
  friend void detail::deregister_detached(Simulation& sim, detail::PromiseBase& p) noexcept;

  static Task<> detail_mark_done(Task<> inner, std::shared_ptr<bool> done) {
    co_await inner;
    *done = true;
  }

  TimePoint now_{0};
  EventArena events_;
  std::uint64_t events_executed_ = 0;
  // Live detached frames, linked through their promises in spawn order.
  detail::PromiseBase* detached_head_ = nullptr;
  detail::PromiseBase* detached_tail_ = nullptr;
  std::size_t detached_count_ = 0;
  Rng rng_;
  // shared_ptr so the (forward-declared) plan can be owned here without
  // simulation.hpp depending on fault.hpp.
  std::shared_ptr<FaultPlan> fault_;
};

inline void Delay::await_suspend(std::coroutine_handle<> h) {
  sim.schedule(d, [h] { h.resume(); });
}

namespace detail {
inline void deregister_detached(Simulation& sim, PromiseBase& p) noexcept {
  (p.prev_detached != nullptr ? p.prev_detached->next_detached : sim.detached_head_) =
      p.next_detached;
  (p.next_detached != nullptr ? p.next_detached->prev_detached : sim.detached_tail_) =
      p.prev_detached;
  --sim.detached_count_;
}
}  // namespace detail

}  // namespace c4h::sim
