// DHT key-value store: overwrite policies, path caching + invalidation,
// replication, leave-time redistribution, failure repair.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/kv/kvstore.hpp"

namespace c4h::kv {
namespace {

using overlay::ChimeraNode;
using overlay::Overlay;
using overlay::OverlayConfig;
using sim::Simulation;
using sim::Task;

Buffer buf(const std::string& s) { return Buffer(s.begin(), s.end()); }
std::string str(const Buffer& b) { return std::string(b.begin(), b.end()); }

struct Rig {
  Simulation sim{7};
  net::Topology topo;
  std::vector<std::unique_ptr<vmm::Host>> hosts;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Overlay> overlay;
  std::unique_ptr<KvStore> kv;
  std::vector<ChimeraNode*> nodes;

  explicit Rig(int n, KvConfig kcfg = {}, OverlayConfig ocfg = {}) {
    const auto sw = topo.add_node();
    for (int i = 0; i < n; ++i) {
      vmm::HostSpec spec;
      spec.name = "host-" + std::to_string(i);
      hosts.push_back(std::make_unique<vmm::Host>(sim, spec));
      const auto nn = topo.add_node();
      topo.add_duplex(nn, sw, mbps(95.5), microseconds(150));
      hosts.back()->set_net_node(nn);
    }
    net = std::make_unique<net::Network>(sim, std::move(topo));
    overlay = std::make_unique<Overlay>(sim, *net, ocfg);
    kv = std::make_unique<KvStore>(*overlay, kcfg);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(&overlay->create_node("node-" + std::to_string(i),
                                            *hosts[static_cast<std::size_t>(i)]));
    }
    sim.spawn([](Rig& r) -> Task<> {
      for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        (void)co_await r.overlay->join(*r.nodes[i], i == 0 ? nullptr : r.nodes[0]);
      }
    }(*this));
    sim.run();
  }

  // Runs a coroutine to completion (periodic tasks keep running).
  template <typename Fn>
  void run(Fn&& body) {
    sim.run_task(body(*this));
  }
};

TEST(Kv, PutThenGetRoundTrips) {
  Rig rig{6};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj-1");
    auto put = co_await r.kv->put(*r.nodes[0], k, buf("hello"));
    EXPECT_TRUE(put.ok());
    auto got = co_await r.kv->get(*r.nodes[3], k);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(str(*got), "hello");
    }
  });
}

TEST(Kv, GetMissingKeyIsNotFound) {
  Rig rig{4};
  rig.run([](Rig& r) -> Task<> {
    auto got = co_await r.kv->get(*r.nodes[0], Key::from_name("nothing"));
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code(), Errc::not_found);
  });
}

TEST(Kv, OverwriteReplacesValue) {
  Rig rig{4};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v1"));
    (void)co_await r.kv->put(*r.nodes[1], k, buf("v2"), OverwritePolicy::overwrite);
    auto got = co_await r.kv->get_all(*r.nodes[2], k);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got->size(), 1u);
      EXPECT_EQ(str(got->back()), "v2");
    }
  });
}

TEST(Kv, ChainAppendsVersions) {
  Rig rig{4};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v1"), OverwritePolicy::chain);
    (void)co_await r.kv->put(*r.nodes[1], k, buf("v2"), OverwritePolicy::chain);
    (void)co_await r.kv->put(*r.nodes[2], k, buf("v3"), OverwritePolicy::chain);
    auto got = co_await r.kv->get_all(*r.nodes[3], k);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got->size(), 3u);
      EXPECT_EQ(str(got->front()), "v1");
      EXPECT_EQ(str(got->back()), "v3");
    }
    // get returns the newest version.
    auto latest = co_await r.kv->get(*r.nodes[0], k);
    EXPECT_TRUE(latest.ok());
    if (latest.ok()) {
      EXPECT_EQ(str(*latest), "v3");
    }
  });
}

TEST(Kv, ErrorPolicyRejectsExistingKey) {
  Rig rig{4};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj");
    auto first = co_await r.kv->put(*r.nodes[0], k, buf("v1"), OverwritePolicy::error);
    EXPECT_TRUE(first.ok());
    auto second = co_await r.kv->put(*r.nodes[1], k, buf("v2"), OverwritePolicy::error);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.code(), Errc::already_exists);
    auto got = co_await r.kv->get(*r.nodes[2], k);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(str(*got), "v1");  // original survived
    }
  });
}

TEST(Kv, EraseRemovesEverywhere) {
  Rig rig{6};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v"));
    (void)co_await r.kv->get(*r.nodes[5], k);  // seed caches
    auto erased = co_await r.kv->erase(*r.nodes[1], k);
    EXPECT_TRUE(erased.ok());
    auto got = co_await r.kv->get(*r.nodes[2], k);
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(r.kv->total_entries(), 0u);
  });
}

TEST(Kv, EraseLandingInsideLocalAccessWindowIsNotServedStale) {
  // Regression: get_all's local fast path held the primary-table iterator
  // across the local-access delay; an erase that landed during that window
  // left the iterator dangling and the resume dereferenced it. The path now
  // re-finds after the suspension and reports the eviction.
  Rig rig{6};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj-racy");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v"));
    // Ask the owner itself, so the get takes the local fast path and parks
    // in the local-access delay; fire the erase while it is suspended.
    overlay::ChimeraNode* owner = r.overlay->node_by_key(r.overlay->true_owner(k));
    EXPECT_NE(owner, nullptr);
    if (owner == nullptr) co_return;
    r.sim.spawn([](Rig& rr, overlay::ChimeraNode& o, Key key) -> Task<> {
      co_await rr.sim.delay(microseconds(2500));  // inside the window
      (void)co_await rr.kv->erase(o, key);
    }(r, *owner, k));
    auto got = co_await r.kv->get_all(*owner, k);
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code(), Errc::not_found) << got.error().message;
    EXPECT_EQ(r.kv->total_entries(), 0u);
  });
}

// What the owner does to the key while a routed read is in flight.
enum class Race { none, erase, rewrite_same_bytes };

// Stores "v" under `key` from node 0, then reads it back from a node that is
// not the owner and holds no cached copy, so the read is routed. Unless
// `race` is none, the owner erases the key, or stores "v" again, `at` after
// the read starts.
Task<> routed_read(Rig& r, Key key, Race race, Duration at, Result<std::vector<Buffer>>& out,
                   Duration& took) {
  (void)co_await r.kv->put(*r.nodes[0], key, buf("v"));
  ChimeraNode* owner = r.overlay->node_by_key(r.overlay->true_owner(key));
  ChimeraNode* reader = nullptr;
  for (ChimeraNode* n : r.nodes) {
    if (n != owner) {
      reader = n;
      break;
    }
  }
  EXPECT_FALSE(r.kv->has_cache(reader->id(), key));
  if (race != Race::none) {
    r.sim.spawn([](Rig& rr, ChimeraNode& o, Key k, Race what, Duration wait) -> Task<> {
      co_await rr.sim.delay(wait);
      if (what == Race::erase) {
        (void)co_await rr.kv->erase(o, k);
      } else {
        (void)co_await rr.kv->put(o, k, buf("v"));
      }
    }(r, *owner, key, race, at));
  }
  const TimePoint t0 = r.sim.now();
  out = co_await r.kv->get_all(*reader, key);
  took = r.sim.now() - t0;
  // A served read leaves a registered cache copy at the reader, unless the
  // race erased the key (and every copy) after it.
  if (out.ok() && race != Race::erase) {
    EXPECT_TRUE(r.kv->has_cache(reader->id(), key)) << "read served, not cached";
  }
}

// Latency of an uncontended routed read on a fresh six-node rig.
Duration routed_read_time(Key key) {
  Rig rig{6};
  Result<std::vector<Buffer>> got = Error{Errc::unavailable, "not run"};
  Duration took{};
  rig.sim.run_task(routed_read(rig, key, Race::none, {}, got, took));
  EXPECT_TRUE(got.ok()) << got.error().message;
  return took;
}

TEST(Kv, EraseLandingInsideRoutedLocalAccessWindowIsNotServedStale) {
  // Regression: get_routed held the holder's table and a pointer into it
  // across the holder's local-access delay; an erase that landed inside that
  // window freed the entry and the resume read the freed list. The path now
  // re-finds after the suspension and takes the no-value path. The owner's
  // erase is swept across the whole routed read in steps shorter than the
  // window, so at least one step lands inside it whatever the route costs.
  const Key k = Key::from_name("obj-racy");
  const Duration read_time = routed_read_time(k);
  const Duration window = KvConfig{}.local_access;
  ASSERT_GT(read_time, 2 * window);

  int served = 0;
  int missing = 0;
  for (Duration at{}; at < read_time; at += window / 4) {
    Rig rig{6};
    Result<std::vector<Buffer>> got = Error{Errc::unavailable, "not run"};
    Duration took{};
    rig.sim.run_task(routed_read(rig, k, Race::erase, at, got, took));
    if (got.ok()) {
      ++served;
      ASSERT_EQ(got->size(), 1u);
      EXPECT_EQ(str(got->front()), "v");
    } else {
      ++missing;
      EXPECT_EQ(got.code(), Errc::not_found) << got.error().message;
    }
  }
  // Early erases win and late ones lose, so the sweep crossed the window.
  EXPECT_GT(missing, 0);
  EXPECT_GT(served, 0);
}

TEST(Kv, RewriteWithEqualBytesDuringRoutedReadStillRegistersCache) {
  // Stored lists are shared and every put installs a new one, so a rewrite
  // of the same bytes that lands while the read's reply is in flight leaves
  // the owner holding a different list with equal contents. The read must
  // still register the reader's cache copy: the check compares bytes, not
  // pointers. The rewrite is swept across the whole read; routed_read
  // checks that every served read left a registered cache behind.
  const Key k = Key::from_name("obj-rewritten");
  const Duration read_time = routed_read_time(k);
  for (Duration at{}; at < read_time; at += KvConfig{}.local_access / 4) {
    Rig rig{6};
    Result<std::vector<Buffer>> got = Error{Errc::unavailable, "not run"};
    Duration took{};
    rig.sim.run_task(routed_read(rig, k, Race::rewrite_same_bytes, at, got, took));
    ASSERT_TRUE(got.ok()) << got.error().message;
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ(str(got->front()), "v");
  }
}

TEST(Kv, RepeatedGetHitsCacheOrLocal) {
  KvConfig cfg;
  cfg.path_caching = true;
  Rig rig{6, cfg};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("popular-object");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v"));
    // Find an origin that is not the owner.
    const Key owner = r.overlay->true_owner(k);
    ChimeraNode* origin = nullptr;
    for (auto* n : r.nodes) {
      if (n->id() != owner) {
        origin = n;
        break;
      }
    }
    (void)co_await r.kv->get(*origin, k);  // populates origin's cache
    const auto hits_before = r.kv->stats().local_hits;
    (void)co_await r.kv->get(*origin, k);  // must be local now
    EXPECT_EQ(r.kv->stats().local_hits, hits_before + 1);
    EXPECT_TRUE(r.kv->has_cache(origin->id(), k));
  });
}

TEST(Kv, CachedCopiesAreRefreshedOnPut) {
  Rig rig{6};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("coherent-object");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("old"));
    const Key owner = r.overlay->true_owner(k);
    ChimeraNode* origin = nullptr;
    for (auto* n : r.nodes) {
      if (n->id() != owner) {
        origin = n;
        break;
      }
    }
    (void)co_await r.kv->get(*origin, k);  // cache "old" at origin
    (void)co_await r.kv->put(*r.nodes[0], k, buf("new"));
    co_await r.sim.delay(seconds(1));  // let async cache refresh land
    auto got = co_await r.kv->get(*origin, k);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(str(*got), "new") << "stale cache served after update";
    }
  });
}

TEST(Kv, CachingDisabledMeansNoCacheHits) {
  KvConfig cfg;
  cfg.path_caching = false;
  Rig rig{6, cfg};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("obj");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v"));
    for (int i = 0; i < 5; ++i) (void)co_await r.kv->get(*r.nodes[1], k);
    EXPECT_EQ(r.kv->stats().cache_hits, 0u);
  });
}

TEST(Kv, ReplicasExistAfterPut) {
  KvConfig cfg;
  cfg.replication = 2;
  Rig rig{6, cfg};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("replicated-object");
    (void)co_await r.kv->put(*r.nodes[0], k, buf("v"));
    co_await r.sim.delay(seconds(1));  // async replication
    const Key owner = r.overlay->true_owner(k);
    int replicas = 0;
    for (auto* n : r.nodes) {
      if (n->id() != owner && r.kv->has_replica(n->id(), k)) ++replicas;
    }
    EXPECT_EQ(replicas, 2);
  });
}

TEST(Kv, GracefulLeaveRedistributesKeys) {
  Rig rig{6};
  rig.run([](Rig& r) -> Task<> {
    // Store a bunch of keys, then have every node leave one by one except
    // the last two; all keys must remain readable.
    std::vector<Key> keys;
    for (int i = 0; i < 24; ++i) {
      const Key k = Key::from_name("obj-" + std::to_string(i));
      keys.push_back(k);
      (void)co_await r.kv->put(*r.nodes[0], k, buf("value-" + std::to_string(i)));
    }
    co_await r.overlay->leave(*r.nodes[2]);
    co_await r.overlay->leave(*r.nodes[4]);

    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto got = co_await r.kv->get(*r.nodes[0], keys[i]);
      EXPECT_TRUE(got.ok()) << "key " << i << " lost after leave";
      if (got.ok()) {
        EXPECT_EQ(str(*got), "value-" + std::to_string(i));
      }
    }
    EXPECT_GT(r.kv->stats().redistribution_msgs, 0u);
  });
}

TEST(Kv, FailureWithReplicationPreservesData) {
  KvConfig cfg;
  cfg.replication = 2;
  OverlayConfig ocfg;
  ocfg.stabilize_period = milliseconds(500);
  Rig rig{6, cfg, ocfg};
  rig.overlay->start_stabilization();
  rig.run([](Rig& r) -> Task<> {
    std::vector<Key> keys;
    for (int i = 0; i < 24; ++i) {
      const Key k = Key::from_name("fobj-" + std::to_string(i));
      keys.push_back(k);
      (void)co_await r.kv->put(*r.nodes[0], k, buf("value-" + std::to_string(i)));
    }
    co_await r.sim.delay(seconds(1));  // replication settles

    r.overlay->crash(*r.nodes[3]);
    co_await r.sim.delay(seconds(5));  // detection + repair

    int recovered = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto got = co_await r.kv->get(*r.nodes[0], keys[i]);
      if (got.ok() && str(*got) == "value-" + std::to_string(i)) ++recovered;
    }
    EXPECT_EQ(recovered, static_cast<int>(keys.size()));
  });
  // Stop the heartbeats so sim.run() terminates: destructor handles frames.
}

TEST(Kv, FailureWithoutReplicationLosesOnlyOwnedKeys) {
  KvConfig cfg;
  cfg.replication = 0;
  OverlayConfig ocfg;
  ocfg.stabilize_period = milliseconds(500);
  Rig rig{6, cfg, ocfg};
  rig.overlay->start_stabilization();
  rig.run([](Rig& r) -> Task<> {
    std::vector<Key> keys;
    for (int i = 0; i < 30; ++i) {
      const Key k = Key::from_name("uobj-" + std::to_string(i));
      keys.push_back(k);
      (void)co_await r.kv->put(*r.nodes[0], k, buf("v"));
    }
    const Key victim = r.nodes[3]->id();
    const auto owned = r.kv->primary_keys(victim).size();
    r.overlay->crash(*r.nodes[3]);
    co_await r.sim.delay(seconds(5));

    std::size_t lost = 0;
    for (const Key k : keys) {
      auto got = co_await r.kv->get(*r.nodes[0], k);
      if (!got.ok()) ++lost;
    }
    EXPECT_EQ(lost, owned);  // exactly the victim's keys are gone
  });
}

TEST(Kv, KeysSpreadAcrossNodes) {
  Rig rig{6};
  rig.run([](Rig& r) -> Task<> {
    for (int i = 0; i < 120; ++i) {
      (void)co_await r.kv->put(*r.nodes[0], Key::from_name("spread-" + std::to_string(i)),
                               buf("v"));
    }
    int holders = 0;
    for (auto* n : r.nodes) {
      if (!r.kv->primary_keys(n->id()).empty()) ++holders;
    }
    EXPECT_GE(holders, 4) << "keys should spread across most of 6 nodes";
  });
}

TEST(Kv, LookupLatencyIsConstantInValueSizeRegime) {
  // Table I: DHT lookup cost is ~12-16 ms regardless of object size — the
  // metadata entry is small either way. Verify lookups cost milliseconds,
  // not a function of the (separately transferred) object.
  OverlayConfig ocfg;
  ocfg.per_hop_processing = milliseconds(1);
  Rig rig{6, {}, ocfg};
  rig.run([](Rig& r) -> Task<> {
    const Key k = Key::from_name("meta");
    (void)co_await r.kv->put(*r.nodes[0], k, buf(std::string(200, 'm')));
    KvConfig cfg;  // defaults
    Samples lat;
    for (int i = 0; i < 10; ++i) {
      // Alternate origins to avoid pure local hits.
      auto* origin = r.nodes[static_cast<std::size_t>(1 + (i % 5))];
      const auto t0 = r.sim.now();
      (void)co_await r.kv->get(*origin, k);
      lat.add(to_milliseconds(r.sim.now() - t0));
    }
    EXPECT_LT(lat.max(), 25.0);
  });
}

// Property sweep: random workloads keep the store consistent with an oracle
// map, across cache/replication configurations.
//
// gtest names each case after the raw bytes of its parameter. `name_bytes`
// fills what would otherwise be padding after `caching`, so the bytes, and
// with them the registered test names, are the same on every build and run;
// the values are the ones the suite's case names have always carried.
struct KvSweepParam {
  bool caching;
  std::array<std::uint8_t, 3> name_bytes;
  int replication;
  std::uint64_t seed;
};
static_assert(sizeof(KvSweepParam) == 16, "case names dump all 16 bytes");

class KvRandomSweep : public ::testing::TestWithParam<KvSweepParam> {};

TEST_P(KvRandomSweep, MatchesOracleMap) {
  const auto param = GetParam();
  KvConfig cfg;
  cfg.path_caching = param.caching;
  cfg.replication = param.replication;
  Rig rig{6, cfg};
  rig.run([param](Rig& r) -> Task<> {
    Rng rng{param.seed};
    std::unordered_map<Key, std::string> oracle;
    for (int step = 0; step < 300; ++step) {
      const Key k = Key::from_name("rk-" + std::to_string(rng.below(40)));
      auto* origin = r.nodes[rng.below(r.nodes.size())];
      const double dice = rng.uniform();
      if (dice < 0.5) {
        const std::string v = "v" + std::to_string(step);
        (void)co_await r.kv->put(*origin, k, buf(v));
        oracle[k] = v;
      } else if (dice < 0.9) {
        auto got = co_await r.kv->get(*origin, k);
        const auto it = oracle.find(k);
        if (it == oracle.end()) {
          EXPECT_FALSE(got.ok()) << "phantom key";
        } else {
          EXPECT_TRUE(got.ok());
          if (got.ok()) {
            EXPECT_EQ(str(*got), it->second) << "stale value at step " << step;
          }
        }
      } else {
        auto er = co_await r.kv->erase(*origin, k);
        EXPECT_EQ(er.ok(), oracle.erase(k) > 0);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KvRandomSweep,
    ::testing::Values(KvSweepParam{true, {}, 1, 11}, KvSweepParam{true, {}, 0, 22},
                      KvSweepParam{false, {0x00, 0x01, 0x1B}, 1, 33},
                      KvSweepParam{false, {0xDA, 0x48, 0x00}, 0, 44},
                      KvSweepParam{true, {}, 2, 55}, KvSweepParam{true, {}, 3, 66}));

}  // namespace
}  // namespace c4h::kv
