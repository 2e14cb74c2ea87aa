// Chimera's tree view of other nodes (§III-A): ChimeraNode keeps its peers
// in a std::map (a red-black tree in libstdc++). These tests drive the view
// through the node's own API — add/remove, key order, ring neighbours, leaf
// set — and check it against a sorted-vector oracle under random churn.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/overlay/chimera_node.hpp"
#include "tests/peer_view_oracle.hpp"

namespace c4h::overlay {
namespace {

vmm::HostSpec host_spec() {
  vmm::HostSpec spec;
  spec.name = "h";
  return spec;
}

// The peer view needs a host only for the node's identity; nothing runs.
struct Rig {
  sim::Simulation sim;
  vmm::Host host{sim, host_spec()};
};

PeerInfo at(std::uint32_t net) { return PeerInfo{net::NetNodeId{net}}; }

std::vector<Key> keys(std::initializer_list<std::uint64_t> raw) {
  std::vector<Key> out;
  for (const std::uint64_t r : raw) out.emplace_back(r);
  return out;
}

TEST(RbTree, EmptyTree) {
  Rig r;
  const ChimeraNode n{Key{100}, "n", r.host};
  EXPECT_EQ(n.peer_count(), 0u);
  EXPECT_FALSE(n.knows(Key{1}));
  EXPECT_EQ(n.peer(Key{1}), nullptr);
  EXPECT_TRUE(n.known_peers().empty());
  EXPECT_EQ(n.leaf_set().size(), 0u);
  EXPECT_FALSE(n.right_neighbor().has_value());
  EXPECT_FALSE(n.left_neighbor().has_value());
  EXPECT_EQ(n.next_hop(Key{1}), n.id());
}

TEST(RbTree, InsertFindErase) {
  Rig r;
  ChimeraNode n{Key{100}, "n", r.host};
  n.add_peer(Key{5}, at(50));
  n.add_peer(Key{3}, at(30));
  n.add_peer(Key{8}, at(80));
  n.add_peer(Key{5}, at(55));  // re-adding assigns
  n.add_peer(n.id(), at(1));   // a node is never its own peer
  EXPECT_EQ(n.peer_count(), 3u);
  ASSERT_NE(n.peer(Key{5}), nullptr);
  EXPECT_EQ(n.peer(Key{5})->net, net::NetNodeId{55});
  EXPECT_FALSE(n.knows(n.id()));

  n.remove_peer(Key{3});
  EXPECT_FALSE(n.knows(Key{3}));
  EXPECT_EQ(n.peer(Key{3}), nullptr);
  n.remove_peer(Key{3});  // removing an unknown peer is a no-op
  EXPECT_EQ(n.peer_count(), 2u);
  EXPECT_EQ(n.known_peers(), keys({5, 8}));
}

TEST(RbTree, OrderedIteration) {
  Rig r;
  ChimeraNode n{Key{100}, "n", r.host};
  for (const std::uint64_t k : {7, 1, 9, 3, 5, 8, 2, 6, 4}) n.add_peer(Key{k}, {});
  EXPECT_EQ(n.known_peers(), keys({1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(RbTree, NextPrevTraversal) {
  // Walking right (then left) neighbours from a member of a fully known
  // ring visits every member in key order and wraps back to the start.
  Rig r;
  std::vector<Key> ring;
  for (std::uint64_t k = 0; k < 20; k += 2) ring.emplace_back(k);
  auto member = [&](Key id) {
    ChimeraNode n{id, "n", r.host};
    for (const Key k : ring) n.add_peer(k, {});
    return n;
  };
  const std::size_t size = ring.size();
  Key cur = ring.front();
  for (std::size_t i = 1; i <= size; ++i) {
    cur = member(cur).right_neighbor().value();
    EXPECT_EQ(cur, ring[i % size]) << "right step " << i;
  }
  for (std::size_t i = 1; i <= size; ++i) {
    cur = member(cur).left_neighbor().value();
    EXPECT_EQ(cur, ring[(size - i) % size]) << "left step " << i;
  }
}

TEST(RbTree, LowerBound) {
  // The right neighbour is the first peer past the node's own id, and the
  // left one the last peer before it; past either end they wrap.
  Rig r;
  auto node_at = [&](std::uint64_t id) {
    ChimeraNode n{Key{id}, "n", r.host};
    for (const std::uint64_t k : {10, 20, 30, 40}) n.add_peer(Key{k}, {});
    return n;
  };
  const std::vector<std::pair<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>> cases{
      {5, {10, 40}}, {11, {20, 10}}, {25, {30, 20}}, {39, {40, 30}}, {41, {10, 40}}};
  for (const auto& [id, want] : cases) {
    const ChimeraNode n = node_at(id);
    EXPECT_EQ(n.right_neighbor(), Key{want.first}) << "id " << id;
    EXPECT_EQ(n.left_neighbor(), Key{want.second}) << "id " << id;
  }
}

TEST(RbTree, AscendingInsertStaysBalanced) {
  // Ascending insertion is the worst case for an unbalanced tree; the view
  // must stay complete and ordered, and the ring walk around the middle and
  // across the ends must be right.
  Rig r;
  constexpr std::uint64_t kPeers = 4096;
  constexpr std::uint64_t kStride = 1000;
  ChimeraNode mid{Key{kPeers / 2 * kStride + kStride / 2}, "mid", r.host};
  ChimeraNode top{Key{kPeers * kStride}, "top", r.host};
  std::vector<Key> all;
  for (std::uint64_t k = 0; k < kPeers; ++k) {
    all.emplace_back(k * kStride);
    mid.add_peer(all.back(), {});
    top.add_peer(all.back(), {});
  }
  EXPECT_EQ(mid.peer_count(), kPeers);
  EXPECT_EQ(mid.known_peers(), all);
  EXPECT_EQ(mid.right_neighbor(), Key{(kPeers / 2 + 1) * kStride});
  EXPECT_EQ(mid.left_neighbor(), Key{kPeers / 2 * kStride});
  const auto mid_leaves = mid.leaf_set();
  EXPECT_EQ(std::vector<Key>(mid_leaves.begin(), mid_leaves.end()),
            oracle::leaf_set(mid.id(), all));

  // Past the last key: clockwise wraps to the first.
  EXPECT_EQ(top.right_neighbor(), Key{0});
  EXPECT_EQ(top.left_neighbor(), Key{(kPeers - 1) * kStride});
  const auto top_leaves = top.leaf_set();
  EXPECT_EQ(std::vector<Key>(top_leaves.begin(), top_leaves.end()),
            keys({0, kStride, 2 * kStride, 3 * kStride, (kPeers - 1) * kStride,
                  (kPeers - 2) * kStride, (kPeers - 3) * kStride, (kPeers - 4) * kStride}));
}

TEST(RbTree, MoveSemantics) {
  Rig r;
  ChimeraNode a{Key{100}, "a", r.host};
  a.add_peer(Key{1}, at(10));
  a.add_peer(Key{2}, at(20));
  const ChimeraNode b = std::move(a);
  EXPECT_EQ(b.id(), Key{100});
  EXPECT_EQ(b.peer_count(), 2u);
  ASSERT_NE(b.peer(Key{2}), nullptr);
  EXPECT_EQ(b.peer(Key{2})->net, net::NetNodeId{20});
  EXPECT_EQ(b.right_neighbor(), Key{1});
  EXPECT_EQ(b.next_hop(Key{2}), Key{2});
}

class RbTreeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RbTreeRandomTest, DifferentialAgainstStdMap) {
  // Random add/remove churn on one node, checked against a sorted vector of
  // the live keys after every step. Few slots force re-adds of known peers
  // and removals of absent ones; the peer count wanders across the
  // every-peer leaf set (≤ 2·kLeafRadius) and the ring-walk one, and the
  // random id puts the node near either end of the ring often enough for
  // both walks to wrap.
  Rng rng{GetParam()};
  Rig r;
  const Key id{rng.below(Key::kMask + 1)};
  ChimeraNode n{id, "n", r.host};
  std::vector<Key> slots;
  for (int i = 0; i < 24; ++i) slots.emplace_back(rng.below(Key::kMask + 1));
  std::vector<Key> live;
  std::vector<std::uint32_t> net_of(slots.size(), 0);

  for (int step = 0; step < 2000; ++step) {
    const std::size_t slot = rng.below(slots.size());
    const Key k = slots[slot];
    if (rng.chance(0.6)) {
      net_of[slot] = static_cast<std::uint32_t>(step);
      n.add_peer(k, at(net_of[slot]));
      live.push_back(k);
    } else {
      n.remove_peer(k);
      std::erase(live, k);
    }
    live = oracle::sorted_peers(id, live);

    ASSERT_EQ(n.known_peers(), live) << "step " << step;
    const auto leaves = n.leaf_set();
    ASSERT_EQ(std::vector<Key>(leaves.begin(), leaves.end()), oracle::leaf_set(id, live))
        << "step " << step;
    if (live.empty()) {
      ASSERT_FALSE(n.right_neighbor().has_value());
      ASSERT_FALSE(n.left_neighbor().has_value());
    } else {
      const std::size_t start = oracle::clockwise_start(id, live);
      ASSERT_EQ(n.right_neighbor(), live[start % live.size()]) << "step " << step;
      ASSERT_EQ(n.left_neighbor(), live[(start + live.size() - 1) % live.size()])
          << "step " << step;
    }
    const PeerInfo* p = n.peer(k);
    if (std::find(live.begin(), live.end(), k) != live.end()) {
      ASSERT_NE(p, nullptr) << "step " << step;
      ASSERT_EQ(p->net, net::NetNodeId{net_of[slot]}) << "step " << step;
    } else {
      ASSERT_EQ(p, nullptr) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace c4h::overlay
