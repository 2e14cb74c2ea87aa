// Allocation budget of the untraced op path: global operator new calls and
// coroutine frames per store and per fetch on the paper's six-node home,
// after a warm-up. The counts are exact and deterministic, so each ceiling
// is the count the current op path makes: a change that adds allocations or
// frames to it fails here, and one that removes some should lower the
// ceiling to the new count. The event engine on its own allocates nothing
// once warm.
//
// Its own executable, because it replaces the global operator new to count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "src/sim/simulation.hpp"
#include "src/vstore/home_cloud.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace c4h::vstore {
namespace {

using sim::Task;

constexpr int kWarmup = 60;
constexpr int kOps = 120;

// Ceilings: the exact counts of the current op path over kOps ops, 13.9
// allocations per store and 3.6 per fetch.
constexpr std::uint64_t kStoreCeiling = 1667;
constexpr std::uint64_t kFetchCeiling = 434;
// Coroutine frames (sim::detail::frame_pool), 25.6 per store and 15.1 per
// fetch. Command round trips and XenSocket copies are awaiters, not frames.
constexpr std::uint64_t kStoreFrames = 3071;
constexpr std::uint64_t kFetchFrames = 1814;

std::string object_name(int i) { return "budget-" + std::to_string(i) + ".dat"; }

std::size_t node_of(const HomeCloud& hc, int i) {
  return static_cast<std::size_t>(i) % hc.node_count();
}

/// Creates and stores objects [first, first + n), object i from node i mod 6.
Task<> store_range(HomeCloud& hc, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    VStoreNode& node = hc.node(node_of(hc, i));
    ObjectMeta m;
    m.name = object_name(i);
    m.type = "dat";
    m.size = 64 * 1024;
    auto created = co_await node.create_object(std::move(m));
    EXPECT_TRUE(created.ok());
    auto stored = co_await node.store_object(object_name(i));
    EXPECT_TRUE(stored.ok());
  }
}

/// Fetches objects [first, first + n), object i from the node after its owner.
Task<> fetch_range(HomeCloud& hc, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    auto fetched = co_await hc.node(node_of(hc, i + 1)).fetch_object(object_name(i));
    EXPECT_TRUE(fetched.ok());
  }
}

TEST(AllocBudget, UntracedStoreAndFetchOnSixNodeHome) {
  HomeCloudConfig cfg;  // the paper's testbed: five netbooks and a desktop
  cfg.start_monitors = false;
  HomeCloud hc{cfg};
  hc.bootstrap();
  ASSERT_EQ(hc.node_count(), 6u);
  ASSERT_FALSE(hc.tracer().enabled());

  hc.run(store_range(hc, 0, kWarmup));
  hc.run(fetch_range(hc, 0, kWarmup));

  const sim::detail::FramePool& pool = sim::detail::frame_pool;
  const std::uint64_t before_stores = g_allocations;
  const std::uint64_t frames_before_stores = pool.allocations();
  hc.run(store_range(hc, kWarmup, kOps));
  const std::uint64_t stores = g_allocations - before_stores;
  const std::uint64_t store_frames = pool.allocations() - frames_before_stores;
  const std::uint64_t before_fetches = g_allocations;
  const std::uint64_t frames_before_fetches = pool.allocations();
  hc.run(fetch_range(hc, kWarmup, kOps));
  const std::uint64_t fetches = g_allocations - before_fetches;
  const std::uint64_t fetch_frames = pool.allocations() - frames_before_fetches;

  const auto report = [](const char* what, std::uint64_t s, std::uint64_t f) {
    std::printf("%s: %llu over %d stores (%.3f/op), %llu over %d fetches (%.3f/op)\n", what,
                static_cast<unsigned long long>(s), kOps, static_cast<double>(s) / kOps,
                static_cast<unsigned long long>(f), kOps, static_cast<double>(f) / kOps);
  };
  report("allocations", stores, fetches);
  report("frames", store_frames, fetch_frames);
  EXPECT_LE(stores, kStoreCeiling);
  EXPECT_LE(fetches, kFetchCeiling);
  EXPECT_LE(store_frames, kStoreFrames);
  EXPECT_LE(fetch_frames, kFetchFrames);
}

TEST(AllocBudget, WarmEngineScheduleCancelFireAllocatesNothing) {
  // Each cycle schedules two events, cancels one and fires the other, with
  // enough cycles in flight that cancel tombstones trigger compaction. The
  // first round grows the slot table and the heap to their peak; the second
  // must reuse them.
  constexpr int kCycles = 1000;
  sim::Simulation sim;
  int fired = 0;
  const auto round = [&sim, &fired] {
    for (int i = 0; i < kCycles; ++i) {
      const sim::EventId doomed = sim.schedule(milliseconds(2), [&fired] { fired += kCycles; });
      sim.schedule(milliseconds(1), [&fired] { ++fired; });
      sim.cancel(doomed);
    }
    sim.run();
  };
  round();
  const std::uint64_t before = g_allocations;
  round();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(fired, 2 * kCycles);
  EXPECT_EQ(sim.events_executed(), 2u * kCycles);
}

}  // namespace
}  // namespace c4h::vstore
