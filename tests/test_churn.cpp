// Randomized churn schedules: interleaved joins, graceful leaves, crashes,
// and KV traffic, with invariants checked after every step. This is the
// paper's "dynamism of the home environment, where nodes may periodically
// go off-line and become unavailable" exercised adversarially.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/kv/kvstore.hpp"

namespace c4h::kv {
namespace {

using overlay::ChimeraNode;
using overlay::Overlay;
using overlay::OverlayConfig;
using sim::Simulation;
using sim::Task;

struct ChurnRig {
  Simulation sim;
  net::Topology topo;
  std::vector<std::unique_ptr<vmm::Host>> hosts;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Overlay> overlay;
  std::unique_ptr<KvStore> kv;
  std::vector<ChimeraNode*> nodes;

  explicit ChurnRig(int n, std::uint64_t seed) : sim(seed) {
    const auto sw = topo.add_node();
    for (int i = 0; i < n; ++i) {
      vmm::HostSpec spec;
      spec.name = "churn-host-" + std::to_string(i);
      hosts.push_back(std::make_unique<vmm::Host>(sim, spec));
      const auto nn = topo.add_node();
      topo.add_duplex(nn, sw, mbps(95.5), microseconds(150));
      hosts.back()->set_net_node(nn);
    }
    net = std::make_unique<net::Network>(sim, std::move(topo));
    OverlayConfig ocfg;
    ocfg.stabilize_period = milliseconds(500);
    overlay = std::make_unique<Overlay>(sim, *net, ocfg);
    KvConfig kcfg;
    kcfg.replication = 2;
    kv = std::make_unique<KvStore>(*overlay, kcfg);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(&overlay->create_node("churn-node-" + std::to_string(i),
                                            *hosts[static_cast<std::size_t>(i)]));
    }
  }

  ChimeraNode* random_live(Rng& rng) {
    auto live = overlay->live_members();
    if (live.empty()) return nullptr;
    return live[rng.below(live.size())];
  }
};

class ChurnSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnSweep, SystemStaysConsistentUnderRandomChurn) {
  const std::uint64_t seed = GetParam();
  ChurnRig rig{8, seed};
  rig.overlay->start_stabilization();

  rig.sim.run_task([](ChurnRig& r, std::uint64_t sd) -> Task<> {
    Rng rng{sd};
    // Join everyone.
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      (void)co_await r.overlay->join(*r.nodes[i], i == 0 ? nullptr : r.nodes[0]);
    }

    std::unordered_map<Key, std::string> oracle;  // what a correct KV holds
    int kills = 0;

    for (int step = 0; step < 120; ++step) {
      co_await r.sim.delay(milliseconds(200));
      const double dice = rng.uniform();
      ChimeraNode* actor = r.random_live(rng);
      if (actor == nullptr) break;

      if (dice < 0.40) {
        // put
        const Key k = Key::from_name("ck-" + std::to_string(rng.below(30)));
        const std::string v = "v" + std::to_string(step);
        auto res = co_await r.kv->put(*actor, k, Buffer(v.begin(), v.end()));
        if (res.ok()) oracle[k] = v;
      } else if (dice < 0.80) {
        // get — value must match the oracle (or be a fresh loss right after
        // an unrepaired crash, which replication=2 should prevent once the
        // heartbeat has run; give no slack: any mismatch is a bug).
        const Key k = Key::from_name("ck-" + std::to_string(rng.below(30)));
        auto res = co_await r.kv->get(*actor, k);
        const auto it = oracle.find(k);
        if (it == oracle.end()) {
          EXPECT_FALSE(res.ok()) << "phantom key at step " << step << " seed " << sd;
        } else if (res.ok()) {
          EXPECT_EQ(std::string(res->begin(), res->end()), it->second)
              << "stale read at step " << step << " seed " << sd;
        }
        // A failed get of a known key is tolerated only while a crash is
        // being repaired; repairs are checked at the end.
      } else if (dice < 0.90 && r.overlay->live_members().size() > 4) {
        co_await r.overlay->leave(*actor);
      } else if (r.overlay->live_members().size() > 4 && kills < 2) {
        r.overlay->crash(*actor);
        ++kills;
        co_await r.sim.delay(seconds(3));  // detection + repair window
      }

      // Overlay invariant: routing from any live node reaches the true
      // owner (spot-check one random key per step).
      const Key probe = Key::from_name("probe-" + std::to_string(step));
      ChimeraNode* origin = r.random_live(rng);
      if (origin != nullptr) {
        auto routed = co_await r.overlay->route(*origin, probe);
        EXPECT_TRUE(routed.ok());
        if (routed.ok()) {
          EXPECT_EQ(routed->owner, r.overlay->true_owner(probe))
              << "routing diverged at step " << step << " seed " << sd;
        }
      }
    }

    // Quiesce, then every oracle key must be readable with the right value.
    co_await r.sim.delay(seconds(6));
    ChimeraNode* reader = r.random_live(rng);
    EXPECT_NE(reader, nullptr);
    if (reader == nullptr) co_return;
    int lost = 0;
    // Sorted readback: each get is awaited, so the sweep order feeds the
    // event schedule and must be a function of the seed, not of hash layout.
    std::vector<std::pair<Key, std::string>> sorted_oracle(
        oracle.begin(), oracle.end());

    std::sort(sorted_oracle.begin(), sorted_oracle.end());
    for (const auto& [k, v] : sorted_oracle) {
      auto res = co_await r.kv->get(*reader, k);
      if (!res.ok()) {
        ++lost;
        continue;
      }
      EXPECT_EQ(std::string(res->begin(), res->end()), v) << "seed " << sd;
    }
    EXPECT_EQ(lost, 0) << "replication factor 2 must survive this churn (seed " << sd << ")";
  }(rig, seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweep, ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace c4h::kv
