// Chimera-style overlay: routing correctness, join/leave/crash dynamics,
// leaf sets, and randomized property sweeps at larger scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/overlay/overlay.hpp"
#include "tests/peer_view_oracle.hpp"

namespace c4h::overlay {
namespace {

using sim::Simulation;
using sim::Task;

// Test rig: N hosts on a star LAN, overlay across all of them.
struct Rig {
  Simulation sim{42};
  net::Topology topo;
  std::vector<std::unique_ptr<vmm::Host>> hosts;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Overlay> overlay;
  std::vector<ChimeraNode*> nodes;

  explicit Rig(int n, OverlayConfig cfg = {}) {
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
    overlay = std::make_unique<Overlay>(sim, *net, cfg);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(&overlay->create_node("node-" + std::to_string(i), *hosts[static_cast<std::size_t>(i)]));
    }
  }

  void join_all() {
    sim.spawn([](Rig& r) -> Task<> {
      for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        auto res = co_await r.overlay->join(*r.nodes[i], i == 0 ? nullptr : r.nodes[0]);
        EXPECT_TRUE(res.ok());
      }
    }(*this));
    sim.run();
  }
};

TEST(Overlay, FirstNodeJoinsAlone) {
  Rig rig{1};
  rig.join_all();
  EXPECT_EQ(rig.nodes[0]->peer_count(), 0u);
  EXPECT_TRUE(rig.nodes[0]->online());
}

TEST(Overlay, SmallCloudConvergesToFullMembership) {
  Rig rig{6};
  rig.join_all();
  for (auto* n : rig.nodes) {
    EXPECT_EQ(n->peer_count(), 5u) << n->name();
  }
}

TEST(Overlay, RouteFindsTrueOwnerFromEveryOrigin) {
  Rig rig{6};
  rig.join_all();
  for (int t = 0; t < 20; ++t) {
    const Key target = Key::from_name("object-" + std::to_string(t));
    const Key want = rig.overlay->true_owner(target);
    for (auto* origin : rig.nodes) {
      rig.sim.spawn([](Rig& r, ChimeraNode& o, Key tgt, Key expect) -> Task<> {
        auto res = co_await r.overlay->route(o, tgt);
        EXPECT_TRUE(res.ok());
        if (res.ok()) {
          EXPECT_EQ(res->owner, expect);
        }
      }(rig, *origin, target, want));
    }
    rig.sim.run();
  }
}

TEST(Overlay, RouteToOwnKeyStaysLocal) {
  Rig rig{6};
  rig.join_all();
  auto* n = rig.nodes[3];
  rig.sim.spawn([](Rig& r, ChimeraNode& o) -> Task<> {
    auto res = co_await r.overlay->route(o, o.id());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    EXPECT_EQ(res->owner, o.id());
    EXPECT_EQ(res->hops, 0);
  }(rig, *n));
  rig.sim.run();
}

TEST(Overlay, RoutingTakesMeasurableTime) {
  Rig rig{6};
  rig.join_all();
  Duration took{};
  rig.sim.spawn([](Rig& r, Duration& out) -> Task<> {
    const auto t0 = r.sim.now();
    co_await r.overlay->route(*r.nodes[0], Key::from_name("some-object"));
    out = r.sim.now() - t0;
  }(rig, took));
  rig.sim.run();
  // At most a couple of hops in a full-membership cloud; each ~1+ ms.
  EXPECT_GT(took, Duration::zero());
  EXPECT_LT(to_milliseconds(took), 20.0);
}

TEST(Overlay, GracefulLeaveRemovesFromAllPeers) {
  Rig rig{6};
  rig.join_all();
  auto* leaver = rig.nodes[2];
  rig.sim.spawn([](Rig& r, ChimeraNode& n) -> Task<> { co_await r.overlay->leave(n); }(rig, *leaver));
  rig.sim.run();
  EXPECT_FALSE(leaver->online());
  for (auto* n : rig.nodes) {
    if (n == leaver) continue;
    EXPECT_FALSE(n->knows(leaver->id())) << n->name();
  }
}

TEST(Overlay, LeaveHookRunsBeforeDeparture) {
  Rig rig{3};
  rig.join_all();
  bool hook_ran = false;
  bool node_was_online_in_hook = false;
  rig.overlay->set_leave_hook([&](ChimeraNode& n) -> Task<> {
    hook_ran = true;
    node_was_online_in_hook = n.online();
    co_return;
  });
  rig.sim.spawn([](Rig& r) -> Task<> { co_await r.overlay->leave(*r.nodes[1]); }(rig));
  rig.sim.run();
  EXPECT_TRUE(hook_ran);
  EXPECT_TRUE(node_was_online_in_hook);
}

TEST(Overlay, RoutingSurvivesCrashOfIntermediate) {
  Rig rig{8};
  rig.join_all();
  // Crash a node, then route to a key it owned: the route must converge to
  // the new true owner after the probe timeout detour.
  Key victim_key{};
  for (int t = 0; t < 200; ++t) {
    const Key k = Key::from_name("probe-" + std::to_string(t));
    if (rig.overlay->true_owner(k) == rig.nodes[4]->id()) {
      victim_key = k;
      break;
    }
  }
  ASSERT_NE(victim_key, Key{});
  rig.overlay->crash(*rig.nodes[4]);
  const Key new_owner = rig.overlay->true_owner(victim_key);
  ASSERT_NE(new_owner, rig.nodes[4]->id());

  rig.sim.spawn([](Rig& r, Key k, Key expect) -> Task<> {
    auto res = co_await r.overlay->route(*r.nodes[0], k);
    EXPECT_TRUE(res.ok());
    if (res.ok()) {
      EXPECT_EQ(res->owner, expect);
    }
  }(rig, victim_key, new_owner));
  rig.sim.run();
  EXPECT_GE(rig.overlay->stats().failures_detected, 0u);
}

TEST(Overlay, StabilizationDetectsCrashedNeighbor) {
  OverlayConfig cfg;
  cfg.stabilize_period = milliseconds(500);
  Rig rig{6, cfg};
  rig.join_all();
  rig.overlay->start_stabilization();

  auto* victim = rig.nodes[3];
  rig.overlay->crash(*victim);
  rig.sim.run_until(rig.sim.now() + seconds(5));

  for (auto* n : rig.nodes) {
    if (n == victim || !n->online()) continue;
    EXPECT_FALSE(n->knows(victim->id())) << n->name() << " still knows crashed node";
  }
  EXPECT_GE(rig.overlay->stats().failures_detected, 1u);
}

TEST(Overlay, FailureHookFires) {
  OverlayConfig cfg;
  cfg.stabilize_period = milliseconds(500);
  Rig rig{4, cfg};
  rig.join_all();
  std::vector<Key> reported;
  rig.overlay->set_failure_hook([&](Key dead) -> Task<> {
    reported.push_back(dead);
    co_return;
  });
  rig.overlay->start_stabilization();
  rig.overlay->crash(*rig.nodes[1]);
  rig.sim.run_until(rig.sim.now() + seconds(5));
  ASSERT_FALSE(reported.empty());
  EXPECT_EQ(reported.front(), rig.nodes[1]->id());
}

TEST(Overlay, LateJoinerIsRoutableImmediately) {
  Rig rig{5};
  // Join only the first four.
  rig.sim.spawn([](Rig& r) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await r.overlay->join(*r.nodes[static_cast<std::size_t>(i)], i == 0 ? nullptr : r.nodes[0]);
    }
  }(rig));
  rig.sim.run();

  rig.hosts[4]->set_online(false);  // starts offline
  rig.sim.spawn([](Rig& r) -> Task<> {
    (void)co_await r.overlay->join(*r.nodes[4], r.nodes[2]);
    // A key owned by the newcomer must now resolve to it from an old node.
    for (int t = 0; t < 300; ++t) {
      const Key k = Key::from_name("late-" + std::to_string(t));
      if (r.overlay->true_owner(k) == r.nodes[4]->id()) {
        auto res = co_await r.overlay->route(*r.nodes[0], k);
        EXPECT_TRUE(res.ok());
        if (res.ok()) {
          EXPECT_EQ(res->owner, r.nodes[4]->id());
        }
        co_return;
      }
    }
    ADD_FAILURE() << "no key owned by newcomer found";
  }(rig));
  rig.sim.run();
}

TEST(ChimeraNode, LeafSetHasBothSides) {
  Simulation sim;
  vmm::HostSpec spec;
  spec.name = "h";
  vmm::Host host{sim, spec};
  ChimeraNode n{Key{0x8000000000ull >> 1}, "n", host};  // mid-space id
  for (int i = 0; i < 32; ++i) {
    n.add_peer(Key{static_cast<std::uint64_t>(i) * (Key::kMask / 32)}, {});
  }
  const auto leaves = n.leaf_set();
  EXPECT_EQ(leaves.size(), 2u * ChimeraNode::kLeafRadius);
  // All leaves must be among the 2R ring-closest peers.
  std::vector<std::uint64_t> dists;
  for (const Key k : n.known_peers()) dists.push_back(n.id().ring_distance(k));
  std::sort(dists.begin(), dists.end());
  const std::uint64_t radius = dists[2 * ChimeraNode::kLeafRadius - 1];
  for (const Key k : leaves) EXPECT_LE(n.id().ring_distance(k), radius);
}

TEST(ChimeraNode, RemovePeerClearsRoutingSlot) {
  Simulation sim;
  vmm::HostSpec spec;
  spec.name = "h";
  vmm::Host host{sim, spec};
  ChimeraNode n{Key::from_name("self"), "n", host};
  const Key p = Key::from_name("peer");
  n.add_peer(p, {});
  EXPECT_TRUE(n.knows(p));
  n.remove_peer(p);
  EXPECT_FALSE(n.knows(p));
  EXPECT_EQ(n.next_hop(p), n.id());  // no peers → self
}

TEST(ChimeraNode, LeafSetMatchesVectorOracle) {
  Simulation sim;
  vmm::HostSpec spec;
  spec.name = "h";
  vmm::Host host{sim, spec};
  Rng rng{2011};
  // Mid-space, and next to either end of the ring, so both the clockwise and
  // the counter-clockwise walk wrap around.
  const std::vector<Key> ids{Key{Key::kMask / 2}, Key{3}, Key{Key::kMask - 3}};
  int compared = 0;
  for (const Key id : ids) {
    for (int peers = 0; peers <= 20; ++peers) {
      for (int trial = 0; trial < 8; ++trial) {
        ChimeraNode n{id, "n", host};
        std::vector<Key> keys;
        for (int i = 0; i < peers; ++i) {
          // Half the trials crowd the peers around the ring's ends.
          const std::uint64_t raw = trial % 2 == 0
                                        ? rng.below(Key::kMask + 1)
                                        : (rng.chance(0.5) ? rng.below(64)
                                                           : Key::kMask - rng.below(64));
          keys.push_back(Key{raw});
          n.add_peer(keys.back(), {});
        }
        const auto leaves = n.leaf_set();
        EXPECT_EQ(std::vector<Key>(leaves.begin(), leaves.end()), oracle::leaf_set(id, keys))
            << "id " << id.to_string() << ", " << peers << " peers, trial " << trial;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 3 * 21 * 8);
}

// Oracle: the collect-sort-resize successor scan kept from before
// successors_of switched to a partial sort over a reused buffer.
std::vector<Key> successors_oracle(const std::vector<ChimeraNode*>& nodes, Key node, int r) {
  std::vector<Key> live;
  for (const ChimeraNode* n : nodes) {
    if (n->online() && n->in_ring() && n->id() != node) live.push_back(n->id());
  }
  std::sort(live.begin(), live.end(), [node](Key a, Key b) {
    return node.clockwise_distance(a) < node.clockwise_distance(b);
  });
  if (live.size() > static_cast<std::size_t>(r)) live.resize(static_cast<std::size_t>(r));
  return live;
}

TEST(Overlay, SuccessorsOfMatchesSortOracle) {
  Rig rig{12};
  rig.join_all();
  Rng rng{7919};
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // A random membership: some hosts down, some nodes out of the ring.
    int live = 0;
    for (std::size_t i = 0; i < rig.nodes.size(); ++i) {
      rig.hosts[i]->set_online(!rng.chance(0.25));
      rig.nodes[i]->set_in_ring(!rng.chance(0.2));
      if (rig.nodes[i]->online() && rig.nodes[i]->in_ring()) ++live;
    }
    // Every node's own id (member or not) plus keys that are no node's id.
    std::vector<Key> from;
    for (const ChimeraNode* n : rig.nodes) from.push_back(n->id());
    for (int i = 0; i < 4; ++i) from.push_back(Key{rng.below(Key::kMask + 1)});
    for (const Key node : from) {
      for (int r = 0; r <= live + 1; ++r) {
        EXPECT_EQ(rig.overlay->successors_of(node, r), successors_oracle(rig.nodes, node, r))
            << "trial " << trial << ", from " << node.to_string() << ", r " << r;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 40 * 16);
}

// Property sweep: at larger scale with partial membership, routing from any
// origin still reaches the true owner, and hop counts stay modest.
class OverlayScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(OverlayScaleTest, AllRoutesReachTrueOwner) {
  const int n = GetParam();
  Rig rig{n};
  rig.join_all();

  int checked = 0;
  Accumulator hops;
  for (int t = 0; t < 30; ++t) {
    const Key target = Key::from_name("scale-object-" + std::to_string(t));
    const Key want = rig.overlay->true_owner(target);
    const auto origin_idx = static_cast<std::size_t>(t % n);
    rig.sim.spawn([](Rig& r, std::size_t oi, Key tgt, Key expect, int& cnt, Accumulator& h) -> Task<> {
      auto res = co_await r.overlay->route(*r.nodes[oi], tgt);
      EXPECT_TRUE(res.ok());
      if (!res.ok()) co_return;
      EXPECT_EQ(res->owner, expect);
      h.add(res->hops);
      ++cnt;
    }(rig, origin_idx, target, want, checked, hops));
    rig.sim.run();
  }
  EXPECT_EQ(checked, 30);
  EXPECT_LE(hops.max(), 10.0);  // far below max_hops; prefix routing works
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlayScaleTest, ::testing::Values(2, 3, 6, 16, 48, 96));

}  // namespace
}  // namespace c4h::overlay
