// Discrete-event engine: ordering, determinism, cancellation, coroutine
// tasks, events, channels, when_all.
#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulation, EqualTimestampsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId ev = sim.schedule(milliseconds(10), [&] { ran = true; });
  EXPECT_TRUE(sim.pending(ev));
  sim.cancel(ev);
  EXPECT_FALSE(sim.pending(ev));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, RunUntilAdvancesClockExactly) {
  Simulation sim;
  int count = 0;
  sim.schedule(milliseconds(10), [&] { ++count; });
  sim.schedule(milliseconds(50), [&] { ++count; });
  sim.run_until(milliseconds(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), milliseconds(20));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, NestedSchedulingFromCallback) {
  Simulation sim;
  TimePoint second_ran{};
  sim.schedule(milliseconds(10), [&] {
    sim.schedule(milliseconds(5), [&] { second_ran = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(second_ran, milliseconds(15));
}

Task<> simple_process(Simulation& sim, std::vector<std::string>& log) {
  log.push_back("start@" + std::to_string(sim.now().count()));
  co_await sim.delay(milliseconds(10));
  log.push_back("mid@" + std::to_string(sim.now().count()));
  co_await sim.delay(milliseconds(5));
  log.push_back("end@" + std::to_string(sim.now().count()));
}

TEST(Coroutine, DelaysAdvanceSimulatedTime) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn(simple_process(sim, log));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "start@0");
  EXPECT_EQ(log[1], "mid@" + std::to_string(milliseconds(10).count()));
  EXPECT_EQ(log[2], "end@" + std::to_string(milliseconds(15).count()));
}

Task<int> child_returning(Simulation& sim) {
  co_await sim.delay(milliseconds(1));
  co_return 42;
}

Task<> parent_awaits_child(Simulation& sim, int& out) {
  out = co_await child_returning(sim);
}

TEST(Coroutine, AwaitedChildReturnsValue) {
  Simulation sim;
  int out = 0;
  sim.spawn(parent_awaits_child(sim, out));
  sim.run();
  EXPECT_EQ(out, 42);
}

Task<> thrower(Simulation& sim) {
  co_await sim.delay(milliseconds(1));
  throw std::runtime_error("boom");
}

Task<> catcher(Simulation& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Coroutine, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catcher(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Task<> deep_chain(Simulation& sim, int depth, int& leaf_count) {
  if (depth == 0) {
    ++leaf_count;
    co_return;
  }
  co_await deep_chain(sim, depth - 1, leaf_count);
}

TEST(Coroutine, DeepAwaitChainDoesNotOverflowStack) {
  Simulation sim;
  int leaves = 0;
  sim.spawn(deep_chain(sim, 50000, leaves));
  sim.run();
  EXPECT_EQ(leaves, 1);
}

Task<> waiter(Event& ev, Simulation& sim, std::vector<TimePoint>& times) {
  co_await ev.wait();
  times.push_back(sim.now());
}

Task<> firer(Event& ev, Simulation& sim) {
  co_await sim.delay(milliseconds(25));
  ev.fire();
}

TEST(Event, BroadcastWakesAllWaitersAtFireTime) {
  Simulation sim;
  Event ev{sim};
  std::vector<TimePoint> times;
  sim.spawn(waiter(ev, sim, times));
  sim.spawn(waiter(ev, sim, times));
  sim.spawn(firer(ev, sim));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], milliseconds(25));
  EXPECT_EQ(times[1], milliseconds(25));
}

TEST(Event, WaitAfterFireIsImmediate) {
  Simulation sim;
  Event ev{sim};
  ev.fire();
  std::vector<TimePoint> times;
  sim.spawn(waiter(ev, sim, times));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], TimePoint{0});
}

Task<> producer(Channel<int>& ch, Simulation& sim, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.delay(milliseconds(10));
    ch.push(i);
  }
}

Task<> consumer(Channel<int>& ch, std::vector<int>& got, int n) {
  for (int i = 0; i < n; ++i) {
    got.push_back(co_await ch.pop());
  }
}

TEST(Channel, FifoDelivery) {
  Simulation sim;
  Channel<int> ch{sim};
  std::vector<int> got;
  sim.spawn(consumer(ch, got, 5));
  sim.spawn(producer(ch, sim, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, PopBeforePushSuspends) {
  Simulation sim;
  Channel<std::string> ch{sim};
  std::string got;
  sim.spawn([](Channel<std::string>& c, std::string& out) -> Task<> {
    out = co_await c.pop();
  }(ch, got));
  sim.run_until(milliseconds(5));
  EXPECT_TRUE(got.empty());
  ch.push("late");
  sim.run();
  EXPECT_EQ(got, "late");
}

TEST(Channel, ReadyPopCannotTakeAWokenWaitersItem) {
  // push() wakes the parked consumer, but the wake-up runs later: a second
  // consumer whose pop() runs in between must not take the item that woke
  // the first one.
  Simulation sim;
  Channel<int> ch{sim};
  int parked = 0;
  int second = 0;
  sim.spawn([](Channel<int>& c, int& out) -> Task<> { out = co_await c.pop(); }(ch, parked));
  sim.spawn([](Channel<int>& c, int& out) -> Task<> {
    c.push(7);
    out = co_await c.pop();
  }(ch, second));
  sim.schedule(milliseconds(1), [&ch] { ch.push(8); });
  sim.run();
  EXPECT_EQ(parked, 7);
  EXPECT_EQ(second, 8);
  EXPECT_TRUE(ch.empty());
}

Task<> sleep_for(Simulation& sim, Duration d, int& done) {
  co_await sim.delay(d);
  ++done;
}

TEST(WhenAll, CompletesAtSlowestTask) {
  Simulation sim;
  int done = 0;
  TimePoint all_done{};
  sim.spawn([](Simulation& s, int& d, TimePoint& t) -> Task<> {
    std::vector<Task<>> tasks;
    tasks.push_back(sleep_for(s, milliseconds(10), d));
    tasks.push_back(sleep_for(s, milliseconds(30), d));
    tasks.push_back(sleep_for(s, milliseconds(20), d));
    co_await when_all(s, std::move(tasks));
    t = s.now();
  }(sim, done, all_done));
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(all_done, milliseconds(30));
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  Simulation sim;
  bool finished = false;
  sim.spawn([](Simulation& s, bool& f) -> Task<> {
    co_await when_all(s, {});
    f = true;
  }(sim, finished));
  sim.run();
  EXPECT_TRUE(finished);
}

TEST(Simulation, DestructorCleansUpSuspendedDetachedTasks) {
  // A detached task parked on an event that never fires must not leak; the
  // Simulation destructor destroys its frame (checked under ASan builds;
  // here we just verify no crash).
  auto sim = std::make_unique<Simulation>();
  Event ev{*sim};
  sim->spawn([](Event& e) -> Task<> { co_await e.wait(); }(ev));
  sim->run();
  sim.reset();
  SUCCEED();
}

TEST(Simulation, TeardownDestroysParkedTasksInSpawnOrder) {
  // Live detached frames are linked through their promises in spawn order: a
  // task that completes is unlinked from the middle, and the destructor
  // destroys the parked rest first to last.
  struct Guard {
    std::vector<int>& log;
    int id;
    ~Guard() { log.push_back(id); }
  };
  std::vector<int> destroyed;
  auto sim = std::make_unique<Simulation>();
  Event never{*sim};
  for (int i = 0; i < 4; ++i) {
    sim->spawn([](Event& e, std::vector<int>& log, int id) -> Task<> {
      Guard g{log, id};
      if (id != 1) co_await e.wait();
    }(never, destroyed, i));
  }
  sim->run();
  EXPECT_EQ(sim->detached_count(), 3u);
  EXPECT_EQ(destroyed, (std::vector<int>{1}));
  sim.reset();
  EXPECT_EQ(destroyed, (std::vector<int>{1, 0, 2, 3}));
}

TEST(Simulation, RunTaskSurvivesTaskThatOutlivesTheCall) {
  // run_task's completion flag must be co-owned by the marker frame: when the
  // driven task parks on an event that never fires, the queue drains and
  // run_task returns with the frame still suspended. Completing the task
  // afterwards used to write through a reference into run_task's dead stack
  // frame; now it lands in shared state. (Fails under ASan on the old code.)
  Simulation sim;
  Event gate{sim};
  bool finished = false;
  sim.run_task([](Event& g, bool& fin) -> Task<> {
    co_await g.wait();
    fin = true;
  }(gate, finished));
  EXPECT_FALSE(finished);  // queue drained with the task still parked

  // Wake the parked frame well after run_task returned.
  sim.schedule(milliseconds(1), [&gate] { gate.fire(); });
  sim.run();
  EXPECT_TRUE(finished);

  // The simulation stays usable for a second, completing run_task.
  bool second = false;
  sim.run_task([](Simulation& s, bool& fin) -> Task<> {
    co_await s.delay(milliseconds(2));
    fin = true;
  }(sim, second));
  EXPECT_TRUE(second);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim{123};
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 100; ++i) {
      sim.schedule(milliseconds(static_cast<std::int64_t>(sim.rng().below(50))), [&trace, &sim] {
        trace.push_back(sim.now().count());
      });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- slab event arena (event_arena.hpp) ------------------------------------

TEST(EventArena, CancelHeavyChurnKeepsHeapBounded) {
  // The reschedule idiom of the network layer: every event cancels and
  // re-schedules its successor. Tombstone compaction must keep the heap
  // within a small constant factor of the live count, no matter how long
  // the churn runs.
  Simulation sim;
  std::vector<EventId> ids;
  for (int round = 0; round < 200; ++round) {
    for (const EventId id : ids) sim.cancel(id);
    ids.clear();
    for (int i = 0; i < 50; ++i) {
      ids.push_back(sim.schedule(milliseconds(10 + i), [] {}));
    }
    EXPECT_EQ(sim.pending_event_count(), 50u);
    // 50 live entries; compaction triggers once tombstones pass max(64,
    // heap/2), so the heap can never grow past ~(2*live + 64 + slack).
    EXPECT_LE(sim.event_queue_size(), 2 * 50 + 64 + 2) << "round " << round;
  }
  sim.run();
  EXPECT_EQ(sim.pending_event_count(), 0u);
  EXPECT_EQ(sim.event_queue_size(), 0u);
}

TEST(EventArena, StaleIdStaysStaleAfterSlotReuse) {
  // Generation tags: once an event fires or is cancelled its EventId must
  // never match again, even after the underlying slot is recycled by later
  // schedules.
  Simulation sim;
  int fired = 0;
  const EventId first = sim.schedule(milliseconds(1), [&] { ++fired; });
  EXPECT_TRUE(sim.pending(first));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.pending(first));

  // The arena reuses the freed slot for the next schedule; the stale id
  // must not alias the new tenant.
  const EventId second = sim.schedule(milliseconds(1), [&] { ++fired; });
  EXPECT_FALSE(sim.pending(first));
  sim.cancel(first);  // must be a no-op...
  EXPECT_TRUE(sim.pending(second));  // ...that does not evict the new tenant
  sim.run();
  EXPECT_EQ(fired, 2);

  // Cancelled ids behave the same way.
  const EventId third = sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.cancel(third);
  EXPECT_FALSE(sim.pending(third));
  const EventId fourth = sim.schedule(milliseconds(2), [&] { ++fired; });
  sim.cancel(third);
  EXPECT_TRUE(sim.pending(fourth));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventArena, EqualTimestampFifoSurvivesChurn) {
  // FIFO at equal timestamps is the determinism contract; interleaved
  // cancellations must not disturb the order of the survivors.
  Simulation sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(sim.schedule(milliseconds(5), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 32; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  std::vector<int> want;
  for (int i = 1; i < 32; i += 2) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(EventArena, LargeCapturesFallBackToHeapIntact) {
  // Captures beyond the inline small-buffer budget must round-trip through
  // the heap fallback unscathed (cancel must release them cleanly too).
  Simulation sim;
  std::array<std::uint64_t, 16> big{};  // 128 bytes: > EventArena::kInlineBytes
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0x1234u + i;
  std::uint64_t sum = 0;
  sim.schedule(milliseconds(1), [big, &sum] {
    for (const std::uint64_t v : big) sum += v;
  });
  const EventId doomed = sim.schedule(milliseconds(2), [big, &sum] { sum = 0; });
  sim.cancel(doomed);
  sim.run();
  std::uint64_t want = 0;
  for (const std::uint64_t v : big) want += v;
  EXPECT_EQ(sum, want);
}

TEST(EventArena, CallbackSchedulingDuringFireIsSafe) {
  // A firing callback that schedules more events can grow the arena's slot
  // table mid-invoke; the relocate-to-stack step must keep the running
  // callable valid. Chain deep enough to force several regrowths.
  Simulation sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 500) {
      for (int i = 0; i < 8; ++i) {
        const EventId extra = sim.schedule(milliseconds(1), [] {});
        sim.cancel(extra);
      }
      sim.schedule(milliseconds(1), [&] { hop(); });
    }
  };
  sim.schedule(milliseconds(1), [&] { hop(); });
  sim.run();
  EXPECT_EQ(hops, 500);
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(EventArena, SlotGrowthRelocatesNonTriviallyMovableCaptures) {
  // Inline callables only promise nothrow move-construction, not trivial
  // relocatability. Growing the slot table must route the move through the
  // callable's move constructor (the ops relocate hook), not a byte copy —
  // a self-referential capture detects the difference.
  struct SelfRef {
    std::uint32_t value;
    SelfRef* self;
    explicit SelfRef(std::uint32_t v) : value(v), self(this) {}
    SelfRef(const SelfRef& o) : value(o.value), self(this) {}
    SelfRef(SelfRef&& o) noexcept : value(o.value), self(this) {}
    bool intact() const { return self == this; }
  };
  static_assert(sizeof(SelfRef) <= EventArena::kInlineBytes);

  Simulation sim;
  int fired = 0;
  int intact = 0;
  // Enough events to force several slots_ reallocations while all earlier
  // callables are still pending.
  for (std::uint32_t i = 0; i < 300; ++i) {
    sim.schedule(milliseconds(1 + static_cast<std::int64_t>(i)),
                 [sr = SelfRef{i}, &fired, &intact] {
                   ++fired;
                   if (sr.intact()) ++intact;
                 });
  }
  sim.run();
  EXPECT_EQ(fired, 300);
  EXPECT_EQ(intact, 300);
}

TEST(EventArena, EventsExecutedCounts) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule(milliseconds(i), [] {});
  const EventId gone = sim.schedule(milliseconds(9), [] {});
  sim.cancel(gone);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);  // cancelled events never count
}

// ---- coroutine frame pool (frame_pool.hpp) ---------------------------------

/// Stores the address of the frame that awaits it, then continues at once.
struct FrameAddress {
  void*& out;
  bool await_ready() { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    out = h.address();
    return false;
  }
  void await_resume() {}
};

Task<> note_frame(void*& out) {
  co_await FrameAddress{out};
  co_return;
}

Task<> note_large_frame(void*& out) {
  std::array<char, 1024> held{};  // lives across the await, so it is in the frame
  co_await FrameAddress{out};
  held[0] = 1;
  co_return;
}

/// Spawns `task`, runs it to completion (its frame is destroyed at the end).
void run_detached(Task<> task) {
  Simulation sim;
  sim.spawn(std::move(task));
  sim.run();
  EXPECT_EQ(sim.detached_count(), 0u);
}

TEST(FramePool, DestroyedFrameIsReusedByTheNextFrameOfItsClass) {
  void* first = nullptr;
  void* second = nullptr;
  void* large = nullptr;
  void* third = nullptr;
  run_detached(note_frame(first));
  run_detached(note_frame(second));
  run_detached(note_large_frame(large));
  run_detached(note_frame(third));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second, first);  // the freed block heads its class's list
  EXPECT_NE(large, first);   // another size class never takes it
  EXPECT_EQ(third, first);
}

TEST(FramePool, ReadingAReleasedFrameIsUseAfterPoison) {
  // The pool never frees a block to the heap, so only its own poisoning lets
  // ASan catch a use of a destroyed frame.
#if defined(__SANITIZE_ADDRESS__)
  void* frame = nullptr;
  run_detached(note_frame(frame));
  ASSERT_NE(frame, nullptr);
  EXPECT_DEATH((void)*static_cast<volatile char*>(frame), "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
}  // namespace c4h::sim
