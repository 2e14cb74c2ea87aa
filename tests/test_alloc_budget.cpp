// Allocation budget of the untraced op path: global operator new calls per
// store and per fetch on the paper's six-node home, after a warm-up. The
// counts are exact and deterministic, so each ceiling is the count the
// current op path makes: a change that adds allocations to it fails here,
// and one that removes some should lower the ceiling to the new count.
//
// Its own executable, because it replaces the global operator new to count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

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

// Ceilings: the exact counts of the current op path over kOps ops, 16.9
// allocations per store and 5.6 per fetch.
constexpr std::uint64_t kStoreCeiling = 2027;
constexpr std::uint64_t kFetchCeiling = 674;

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

  const std::uint64_t before_stores = g_allocations;
  hc.run(store_range(hc, kWarmup, kOps));
  const std::uint64_t stores = g_allocations - before_stores;
  const std::uint64_t before_fetches = g_allocations;
  hc.run(fetch_range(hc, kWarmup, kOps));
  const std::uint64_t fetches = g_allocations - before_fetches;

  std::printf("allocations: %llu over %d stores (%.3f/op), %llu over %d fetches (%.3f/op)\n",
              static_cast<unsigned long long>(stores), kOps, static_cast<double>(stores) / kOps,
              static_cast<unsigned long long>(fetches), kOps,
              static_cast<double>(fetches) / kOps);
  EXPECT_LE(stores, kStoreCeiling);
  EXPECT_LE(fetches, kFetchCeiling);
}

}  // namespace
}  // namespace c4h::vstore
