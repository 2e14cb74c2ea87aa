// Property tests for the fair-share solvers.
//
// MaxMinSolver (src/net/fairshare.hpp) is the one water-filling in the
// simulator. It must equal the textbook progressive-filling loop it replaced
// — kept below as oracle_rates() — bit for bit, on random programs and with
// its scratch reused across solves of changing shape.
//
// FairShareEngine re-solves only the affected connected component of the
// flow–link conflict graph. The core property, checked across 120 seeds of
// randomized topologies and mutation histories: after every commit, EVERY
// flow's engine rate — affected or not — matches a from-scratch global
// solve of the current state to within 1e-9 relative error. That "or not"
// clause is the point: it proves the component cut never strands a flow
// with a stale rate. (A component's rounds skip other components' minima,
// so its rates are close to the global solve's, not bitwise equal.)
//
// The Network-level suite then drives real transfers under the global and
// incremental models — default, slow-start, policed, jittered and striped —
// and requires near-identical completion times, plus exercises the per-link
// flow index that serves O(flows-on-link) link_load.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/net/fairshare.hpp"
#include "src/net/network.hpp"
#include "src/net/tcp_model.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::net {
namespace {

constexpr double kTol = 1e-9;

struct ShadowFlow {
  std::vector<std::uint32_t> links;
  Rate cap = std::numeric_limits<Rate>::infinity();
};

// The textbook progressive filling: every round recounts the unfrozen flows
// on every link and scans every flow and every link. MaxMinSolver must
// reproduce it bit for bit.
std::vector<Rate> oracle_rates(const std::vector<Rate>& link_capacity,
                               const std::vector<ShadowFlow>& flows) {
  const std::size_t nf = flows.size();
  std::vector<Rate> rate(nf, 0.0);
  std::vector<bool> frozen(nf, false);
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].links.empty()) {
      rate[f] = flows[f].cap;
      frozen[f] = true;
    }
  }
  std::vector<Rate> used(link_capacity.size(), 0.0);
  for (;;) {
    std::vector<std::uint32_t> active(link_capacity.size(), 0);
    bool any_unfrozen = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      any_unfrozen = true;
      for (const auto l : flows[f].links) ++active[l];
    }
    if (!any_unfrozen) break;

    double increment = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < link_capacity.size(); ++l) {
      if (active[l] == 0) continue;
      increment = std::min(increment, (link_capacity[l] - used[l]) / active[l]);
    }
    for (std::size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) increment = std::min(increment, flows[f].cap - rate[f]);
    }
    if (increment < 0) increment = 0;

    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      rate[f] += increment;
      for (const auto l : flows[f].links) used[l] += increment;
    }

    constexpr double kEps = 1e-7;
    bool froze_any = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool saturated = rate[f] >= flows[f].cap - kEps;
      for (const auto l : flows[f].links) {
        if (used[l] >= link_capacity[l] - kEps) saturated = true;
      }
      if (saturated) {
        frozen[f] = true;
        froze_any = true;
      }
    }
    if (!froze_any) break;
  }
  return rate;
}

std::vector<Rate> solver_rates(MaxMinSolver& solver, const std::vector<Rate>& caps,
                               const std::vector<ShadowFlow>& flows) {
  solver.clear();
  for (const ShadowFlow& f : flows) solver.add_flow(f.links, f.cap);
  solver.solve([&caps](std::uint32_t l) { return caps[l]; });
  std::vector<Rate> out;
  for (std::size_t i = 0; i < flows.size(); ++i) out.push_back(solver.rate(i));
  return out;
}

TEST(MaxMinSolverExact, MatchesOracleBitwiseAcross300Programs) {
  // One solver for every program: its scratch is reused across solves whose
  // flow and link counts grow and shrink.
  MaxMinSolver solver;
  const Rate inf = std::numeric_limits<Rate>::infinity();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng{seed};
    const auto n_links = static_cast<std::uint32_t>(1 + rng.below(seed % 3 == 0 ? 40 : 8));
    std::vector<Rate> caps;
    for (std::uint32_t l = 0; l < n_links; ++l) {
      // A zero-capacity link parks its flows at rate 0.
      caps.push_back(rng.below(20) == 0 ? 0.0 : rng.uniform(1e3, 5e7));
    }
    // A few shared multi-link paths that many flows reuse, so several flows
    // saturate the same links in the same round.
    std::vector<std::vector<std::uint32_t>> paths;
    for (int p = 0; p < 4; ++p) {
      std::vector<std::uint32_t> path;
      const auto len = 1 + rng.below(std::min<std::uint64_t>(4, n_links));
      for (std::uint64_t k = 0; k < len; ++k) {
        const auto l = static_cast<std::uint32_t>(rng.below(n_links));
        if (std::find(path.begin(), path.end(), l) == path.end()) path.push_back(l);
      }
      paths.push_back(path);
    }
    std::vector<ShadowFlow> flows(rng.below(48));
    for (ShadowFlow& f : flows) {
      const auto kind = rng.below(8);
      if (kind == 0) {
        // Loopback: no links, rated at its own cap.
      } else if (kind < 5) {
        f.links = paths[rng.below(paths.size())];
      } else {
        f.links.push_back(static_cast<std::uint32_t>(rng.below(n_links)));
      }
      const auto cap_kind = rng.below(6);
      f.cap = cap_kind == 0 ? inf : cap_kind == 1 ? 2.5e5 : rng.uniform(1e3, 2e7);
    }

    for (int round = 0; round < 3; ++round) {
      const std::vector<Rate> want = oracle_rates(caps, flows);
      const std::vector<Rate> got = solver_rates(solver, caps, flows);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
            << "seed " << seed << " round " << round << " flow " << i << ": solver " << got[i]
            << " oracle " << want[i];
      }
      // Re-solve a changed problem on the same scratch: drop a flow, retune
      // a link.
      if (!flows.empty()) flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(rng.below(flows.size())));
      caps[rng.below(n_links)] = rng.uniform(1e3, 5e7);
    }
  }
}

// From-scratch reference solve of the shadow state. Ordered map: flows are
// presented to the solver ascending by id, matching the engine's order.
std::map<std::uint64_t, Rate> reference_rates(const std::vector<Rate>& caps,
                                              const std::map<std::uint64_t, ShadowFlow>& flows) {
  std::vector<std::uint64_t> ids;
  std::vector<ShadowFlow> descs;
  for (const auto& [id, f] : flows) {
    ids.push_back(id);
    descs.push_back(f);
  }
  const std::vector<Rate> rates = oracle_rates(caps, descs);
  std::map<std::uint64_t, Rate> out;
  for (std::size_t i = 0; i < ids.size(); ++i) out[ids[i]] = rates[i];
  return out;
}

void expect_engine_matches_reference(const FairShareEngine& eng, const std::vector<Rate>& caps,
                                     const std::map<std::uint64_t, ShadowFlow>& flows,
                                     const std::string& context) {
  const auto ref_rates = reference_rates(caps, flows);
  ASSERT_EQ(eng.flow_count(), flows.size()) << context;
  for (const auto& [id, want] : ref_rates) {
    const Rate got = eng.rate(id);
    if (got == want) continue;  // also covers the infinite-cap loopback case
    const double scale = std::max(1.0, std::fabs(want));
    EXPECT_LE(std::fabs(got - want), kTol * scale)
        << context << ": flow " << id << " engine=" << got << " reference=" << want;
  }
}

TEST(FairShareProperty, IncrementalMatchesGlobalAcross120Seeds) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng{seed};
    const auto n_links = static_cast<std::uint32_t>(2 + rng.below(9));
    std::vector<Rate> caps;
    caps.reserve(n_links);
    for (std::uint32_t l = 0; l < n_links; ++l) {
      caps.push_back(rng.uniform(1e4, 2e7));
    }

    FairShareEngine eng{caps};
    std::map<std::uint64_t, ShadowFlow> shadow;
    std::uint64_t next_id = 1;

    const int ops = 40;
    for (int op = 0; op < ops; ++op) {
      const std::string context =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const std::uint64_t kind = rng.below(10);
      if (kind < 4 || shadow.empty()) {
        // Admit a flow over 1..4 distinct random links (occasionally zero
        // links: a loopback flow, rated at its own cap).
        ShadowFlow f;
        const auto n_path = rng.below(5);  // 0..4
        std::vector<std::uint32_t> pool(n_links);
        for (std::uint32_t l = 0; l < n_links; ++l) pool[l] = l;
        for (std::uint64_t k = 0; k < n_path && !pool.empty(); ++k) {
          const auto pick = rng.below(pool.size());
          f.links.push_back(pool[pick]);
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        std::sort(f.links.begin(), f.links.end());
        f.cap = rng.below(4) == 0 ? std::numeric_limits<Rate>::infinity()
                                  : rng.uniform(5e3, 1e7);
        const std::uint64_t id = next_id++;
        eng.add_flow(id, f.links, f.cap);
        shadow.emplace(id, f);
      } else if (kind < 6) {
        // Remove a random existing flow.
        auto it = shadow.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.below(shadow.size())));
        eng.remove_flow(it->first);
        shadow.erase(it);
      } else if (kind < 8) {
        // Retune a random flow's cap (a TCP phase change).
        auto it = shadow.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.below(shadow.size())));
        it->second.cap = rng.uniform(5e3, 1e7);
        eng.set_flow_cap(it->first, it->second.cap);
      } else {
        // Resize a random link (congestion, ISP throttling).
        const auto l = static_cast<std::uint32_t>(rng.below(n_links));
        caps[l] = rng.uniform(1e4, 2e7);
        eng.set_link_capacity(l, caps[l]);
      }
      eng.commit();
      expect_engine_matches_reference(eng, caps, shadow, context);
    }

    // Drain: removals must keep the survivors correct all the way down.
    while (!shadow.empty()) {
      eng.remove_flow(shadow.begin()->first);
      shadow.erase(shadow.begin());
      eng.commit();
      expect_engine_matches_reference(eng, caps, shadow,
                                      "seed " + std::to_string(seed) + " drain");
    }
    EXPECT_EQ(eng.flow_count(), 0u);
  }
}

TEST(FairShareProperty, CommitIsDeterministic) {
  // Same mutation history twice ⇒ bitwise-identical rates, not merely close.
  const auto run = [](std::vector<Rate>* rates_out) {
    std::vector<Rate> caps{1e6, 2e6, 5e5, 3e6};
    FairShareEngine eng{caps};
    eng.add_flow(1, {0, 1}, 8e5);
    eng.add_flow(2, {1, 2}, std::numeric_limits<Rate>::infinity());
    eng.add_flow(3, {0, 2, 3}, 6e5);
    eng.commit();
    eng.set_flow_cap(2, 4e5);
    eng.set_link_capacity(2, 9e5);
    eng.remove_flow(1);
    eng.commit();
    for (const std::uint64_t id : {2ull, 3ull}) rates_out->push_back(eng.rate(id));
  };
  std::vector<Rate> a;
  std::vector<Rate> b;
  run(&a);
  run(&b);
  EXPECT_EQ(a, b);
}

TEST(FairShareEngineTest, UntouchedComponentIsNotResolved) {
  // Two disjoint components; mutating one must not report (or perturb) the
  // other. commit() returns the affected ids — that contract is what keeps
  // an event O(component).
  FairShareEngine eng{{1e6, 1e6, 1e6, 1e6}};
  eng.add_flow(1, {0}, std::numeric_limits<Rate>::infinity());
  eng.add_flow(2, {0, 1}, std::numeric_limits<Rate>::infinity());
  eng.add_flow(3, {2, 3}, std::numeric_limits<Rate>::infinity());
  eng.commit();
  const Rate lone = eng.rate(3);

  eng.set_flow_cap(1, 2e5);
  const std::vector<std::uint64_t> affected = eng.commit();
  EXPECT_EQ(affected, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(eng.rate(3), lone);  // bitwise untouched, not recomputed
}

TEST(FairShareEngineTest, FlowsOnLinkStaysSortedAndExact) {
  FairShareEngine eng{{1e6, 1e6}};
  eng.add_flow(1, {0}, 1e5);
  eng.add_flow(2, {0, 1}, 1e5);
  eng.add_flow(3, {0}, 1e5);
  eng.commit();
  EXPECT_EQ(eng.flows_on_link(0), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(eng.flows_on_link(1), (std::vector<std::uint64_t>{2}));
  eng.remove_flow(2);
  eng.commit();
  EXPECT_EQ(eng.flows_on_link(0), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_TRUE(eng.flows_on_link(1).empty());
}

// ---- Network-level equivalence ---------------------------------------------

struct Star {
  sim::Simulation sim;
  Topology topo;
  NetNodeId hub;
  std::vector<NetNodeId> leafs;

  Star(std::uint64_t seed, int n_leafs, double rate_jitter = 0.0) : sim{seed} {
    hub = topo.add_node();
    for (int i = 0; i < n_leafs; ++i) {
      leafs.push_back(topo.add_node());
      topo.add_duplex(leafs.back(), hub, mib_per_sec(8.0), milliseconds(1), 0.0, rate_jitter);
    }
  }
};

// How a program's transfers travel: the TCP profile of every flow, per-flow
// rate jitter on the star's links, and the stripes per transfer.
struct Transport {
  const char* name;
  TcpProfile profile;
  double rate_jitter = 0.0;
  int streams = 1;
};

TcpProfile phased(Bytes slow_start, Bytes policing_burst) {
  TcpProfile p;
  p.rtt = milliseconds(20);
  p.window_cap = 96_KB;  // 4.9 MB/s per flow, below the 8 MiB/s links
  p.slow_start_bytes = slow_start;
  p.slow_start_fraction = 0.5;
  p.policing_burst = policing_burst;
  p.policed_fraction = 0.6;
  return p;
}

const Transport kTransports[] = {
    {"default", {}},
    {"slow_start", phased(96_KB, 0)},
    {"policed", phased(0, 256_KB)},
    {"slow_start+policed+jitter", phased(96_KB, 256_KB), 0.4},
    {"striped", phased(96_KB, 256_KB), 0.0, 3},
};

// Runs the same randomized transfer program under `model` and returns each
// transfer's completion time in nanoseconds.
std::vector<std::int64_t> run_program(NetModel model, std::uint64_t seed,
                                      const Transport& transport = kTransports[0]) {
  Star star{seed, 6, transport.rate_jitter};
  Network net{star.sim, std::move(star.topo)};
  net.set_model(model);

  Rng rng{seed * 977 + 3};
  struct Xfer {
    NetNodeId src, dst;
    Bytes size;
    Duration start;
  };
  std::vector<Xfer> plan;
  for (int i = 0; i < 24; ++i) {
    const auto a = rng.below(star.leafs.size());
    auto b = rng.below(star.leafs.size());
    if (b == a) b = (b + 1) % star.leafs.size();
    plan.push_back({star.leafs[a], star.leafs[b],
                    64_KB + static_cast<Bytes>(rng.below(6)) * 96_KB * transport.streams,
                    milliseconds(static_cast<std::int64_t>(rng.below(400)))});
  }
  // Completion times keyed by transfer index, not completion order — two
  // near-simultaneous completions may legally swap order across models.
  std::vector<std::int64_t> done_at(plan.size(), -1);
  const auto one = [](sim::Simulation& sm, Network& nw, Xfer x, const Transport& tr,
                      std::int64_t& out) -> sim::Task<> {
    co_await sm.delay(x.start);
    co_await nw.transfer_striped(x.src, x.dst, x.size, tr.profile, tr.streams);
    out = sm.now().count();
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    star.sim.spawn(one(star.sim, net, plan[i], transport, done_at[i]));
  }
  star.sim.run();
  for (const std::int64_t t : done_at) EXPECT_GE(t, 0);
  EXPECT_EQ(net.stats().flows_completed,
            plan.size() * static_cast<std::size_t>(transport.streams));
  EXPECT_EQ(net.active_flows(), 0u);
  return done_at;
}

TEST(NetworkModelEquivalence, IncrementalCompletionTimesMatchGlobal) {
  // Identical rate trajectories (to 1e-9) mean completion events land within
  // sub-microsecond of each other on multi-second transfers. The phased
  // transports make flows cross TCP phase boundaries while other flows'
  // events re-rate them; striping makes stripes cross them together.
  for (const Transport& tr : kTransports) {
    for (const std::uint64_t seed : {5ull, 29ull, 101ull}) {
      const auto global = run_program(NetModel::global, seed, tr);
      const auto incremental = run_program(NetModel::incremental, seed, tr);
      ASSERT_EQ(global.size(), incremental.size());
      for (std::size_t i = 0; i < global.size(); ++i) {
        EXPECT_LE(std::llabs(global[i] - incremental[i]), 1000)
            << tr.name << " seed " << seed << " transfer " << i << ": global " << global[i]
            << "ns vs incremental " << incremental[i] << "ns";
      }
    }
  }
}

TEST(NetworkModelEquivalence, AnalyticalModelCompletesTheSameProgram) {
  // The closed-form model promises plausibility, not equivalence: every
  // transfer must still finish, monotonically and deterministically.
  const auto a = run_program(NetModel::analytical, 7);
  const auto b = run_program(NetModel::analytical, 7);
  EXPECT_EQ(a, b);
}

TEST(NetworkLinkLoad, IndexMatchesFlowRatesWhileInFlight) {
  Star star{21, 3};
  const auto up0 = star.topo.route(star.leafs[0], star.hub);  // leaf0 -> hub link
  ASSERT_EQ(up0.size(), 1u);
  const LinkId shared = up0[0];
  Network net{star.sim, std::move(star.topo)};

  // Two flows out of leaf0 share its uplink; each gets half the 8 MiB/s.
  const auto go = [](sim::Simulation&, Network& nw, NetNodeId s, NetNodeId d,
                     Bytes sz) -> sim::Task<> { co_await nw.transfer(s, d, sz, TcpProfile{}); };
  star.sim.spawn(go(star.sim, net, star.leafs[0], star.leafs[1], 4_MB));
  star.sim.spawn(go(star.sim, net, star.leafs[0], star.leafs[2], 4_MB));
  star.sim.run_until(star.sim.now() + milliseconds(600));

  const Rate load = net.link_load(shared);
  EXPECT_EQ(net.active_flows(), 2u);
  EXPECT_GT(load, 0.0);
  EXPECT_LE(load, mib_per_sec(8.0) * (1.0 + 1e-9));
  // Max-min on one saturated link: the two flows split it exactly.
  EXPECT_NEAR(load, mib_per_sec(8.0), mib_per_sec(8.0) * 1e-6);
  EXPECT_EQ(net.link_load(shared + 1), 0.0);  // reverse direction is idle
  star.sim.run();
}

}  // namespace
}  // namespace c4h::net
