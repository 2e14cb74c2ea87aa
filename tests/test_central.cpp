// Centralized metadata alternative (§III-A): semantics, coordinator load
// concentration, and the single-point-of-failure contrast with the DHT.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/stats.hpp"
#include "src/kv/central.hpp"
#include "src/kv/kvstore.hpp"

namespace c4h::kv {
namespace {

using overlay::ChimeraNode;
using overlay::Overlay;
using sim::Simulation;
using sim::Task;

struct Rig {
  Simulation sim{17};
  net::Topology topo;
  std::vector<std::unique_ptr<vmm::Host>> hosts;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Overlay> overlay;
  std::vector<ChimeraNode*> nodes;
  std::unique_ptr<CentralizedMetadata> central;

  explicit Rig(int n) {
    const auto sw = topo.add_node();
    for (int i = 0; i < n; ++i) {
      vmm::HostSpec spec;
      spec.name = "c-host-" + std::to_string(i);
      hosts.push_back(std::make_unique<vmm::Host>(sim, spec));
      const auto nn = topo.add_node();
      topo.add_duplex(nn, sw, mbps(95.5), microseconds(150));
      hosts.back()->set_net_node(nn);
    }
    net = std::make_unique<net::Network>(sim, std::move(topo));
    overlay = std::make_unique<Overlay>(sim, *net);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(&overlay->create_node("c-node-" + std::to_string(i),
                                            *hosts[static_cast<std::size_t>(i)]));
    }
    sim.run_task([](Rig& r) -> Task<> {
      for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        (void)co_await r.overlay->join(*r.nodes[i], i == 0 ? nullptr : r.nodes[0]);
      }
    }(*this));
    central = std::make_unique<CentralizedMetadata>(*overlay, *nodes[0]);
  }
};

TEST(Central, PutGetRoundTrip) {
  Rig rig{4};
  rig.sim.run_task([](Rig& r) -> Task<> {
    Buffer v{1, 2, 3};
    auto p = co_await r.central->put(*r.nodes[2], Key::from_name("o"), v);
    EXPECT_TRUE(p.ok());
    auto g = co_await r.central->get(*r.nodes[3], Key::from_name("o"));
    EXPECT_TRUE(g.ok());
    if (g.ok()) {
      EXPECT_EQ(g->size(), 3u);
    }
    auto miss = co_await r.central->get(*r.nodes[1], Key::from_name("missing"));
    EXPECT_FALSE(miss.ok());
    EXPECT_EQ(miss.code(), Errc::not_found);
  }(rig));
  EXPECT_EQ(rig.central->entries(), 1u);
}

TEST(Central, CoordinatorLocalOpsSkipTheNetwork) {
  Rig rig{3};
  rig.sim.run_task([](Rig& r) -> Task<> {
    const auto msgs0 = r.net->stats().messages_sent;
    Buffer v{9};
    (void)co_await r.central->put(*r.nodes[0], Key::from_name("local"), v);
    (void)co_await r.central->get(*r.nodes[0], Key::from_name("local"));
    EXPECT_EQ(r.net->stats().messages_sent, msgs0);
  }(rig));
}

TEST(Central, AllLoadConcentratesOnCoordinator) {
  Rig rig{6};
  rig.sim.run_task([](Rig& r) -> Task<> {
    for (int i = 0; i < 30; ++i) {
      auto& origin = *r.nodes[1 + (i % 5)];
      Buffer v{1};
      (void)co_await r.central->put(origin, Key::from_name("k" + std::to_string(i)), v);
    }
  }(rig));
  // Every single operation crossed the coordinator.
  EXPECT_EQ(rig.central->stats().coordinator_messages, 60u);
}

TEST(Central, CoordinatorCrashTakesDownAllMetadata) {
  // The DHT with replication survives any single crash (test_kv); the
  // centralized layer loses *everything* when its one node dies.
  Rig rig{5};
  rig.sim.run_task([](Rig& r) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      Buffer v{7};
      (void)co_await r.central->put(*r.nodes[1], Key::from_name("k" + std::to_string(i)), v);
    }
    r.overlay->crash(*r.nodes[0]);  // the coordinator
    int failures = 0;
    for (int i = 0; i < 10; ++i) {
      auto g = co_await r.central->get(*r.nodes[2], Key::from_name("k" + std::to_string(i)));
      failures += !g.ok();
    }
    EXPECT_EQ(failures, 10);
  }(rig));
  EXPECT_EQ(rig.central->stats().outage_failures, 10u);
}

TEST(Central, LookupIsFlatTwoMessages) {
  // Centralized lookups cost one round trip regardless of which node asks —
  // cheaper than a cold DHT route, with none of the DHT's cache benefits.
  Rig rig{6};
  Accumulator lat;
  rig.sim.run_task([&lat](Rig& r) -> Task<> {
    (void)co_await r.central->put(*r.nodes[1], Key::from_name("hot"), Buffer(100, 1));
    for (int i = 0; i < 10; ++i) {
      auto& origin = *r.nodes[1 + (i % 5)];
      const auto t0 = r.sim.now();
      (void)co_await r.central->get(origin, Key::from_name("hot"));
      lat.add(to_milliseconds(r.sim.now() - t0));
    }
  }(rig));
  EXPECT_LT(lat.max() - lat.min(), 1.0) << "latency should be flat";
  EXPECT_LT(lat.mean(), 5.0);
}

}  // namespace
}  // namespace c4h::kv
