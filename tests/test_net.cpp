// Network substrate: topology routing, fair-share solver, TCP phase model,
// and the event-driven flow engine (contention, phase boundaries, jitter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/net/fairshare.hpp"
#include "src/net/network.hpp"
#include "src/net/tcp_model.hpp"
#include "src/net/topology.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::net {
namespace {

using sim::Simulation;
using sim::Task;

// --- Topology ---

TEST(Topology, RouteThroughSwitch) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  const auto sw = t.add_node();
  t.add_duplex(a, sw, mbps(100), milliseconds(1));
  t.add_duplex(b, sw, mbps(100), milliseconds(1));
  const auto& path = t.route(a, b);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(t.link(path[0]).from.v, a.v);
  EXPECT_EQ(t.link(path[1]).to.v, b.v);
  EXPECT_EQ(t.path_latency(a, b), milliseconds(2));
}

TEST(Topology, PrefersLowerLatencyPath) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  const auto slow_mid = t.add_node();
  const auto fast_mid = t.add_node();
  t.add_duplex(a, slow_mid, mbps(100), milliseconds(10));
  t.add_duplex(slow_mid, b, mbps(100), milliseconds(10));
  t.add_duplex(a, fast_mid, mbps(100), milliseconds(1));
  t.add_duplex(fast_mid, b, mbps(100), milliseconds(1));
  EXPECT_EQ(t.path_latency(a, b), milliseconds(2));
}

TEST(Topology, NoRouteDetected) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  EXPECT_FALSE(t.has_route(a, b));
  EXPECT_TRUE(t.has_route(a, a));
}

// The per-pair search routes used to come from: Dijkstra over latency from
// `s`, stopping once `t` settles, with strict-< relaxation and a
// (distance, node id) min-heap. Route trees must return exactly its paths.
std::optional<std::vector<LinkId>> early_exit_route(const Topology& t, NetNodeId src, NetNodeId dst) {
  const std::uint32_t s = src.v;
  const std::uint32_t target = dst.v;
  std::vector<std::vector<LinkId>> adjacency(t.node_count());
  for (LinkId lid = 0; lid < t.link_count(); ++lid) adjacency[t.link(lid).from.v].push_back(lid);
  std::vector<Duration> dist(t.node_count(), Duration::max());
  std::vector<LinkId> via(t.node_count(), UINT32_MAX);
  using QE = std::pair<Duration, std::uint32_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  dist[s] = Duration::zero();
  pq.push({Duration::zero(), s});
  bool found = false;
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == target) {
      found = true;
      break;
    }
    for (const LinkId lid : adjacency[u]) {
      const Link& l = t.link(lid);
      const Duration nd = d + l.latency;
      if (nd < dist[l.to.v]) {
        dist[l.to.v] = nd;
        via[l.to.v] = lid;
        pq.push({nd, l.to.v});
      }
    }
  }
  if (!found) return std::nullopt;
  std::vector<LinkId> out;
  for (std::uint32_t cur = target; cur != s; cur = t.link(via[cur]).from.v) out.push_back(via[cur]);
  std::reverse(out.begin(), out.end());
  return out;
}

void expect_routes_match_search(const Topology& t, const std::string& context) {
  for (std::uint32_t a = 0; a < t.node_count(); ++a) {
    for (std::uint32_t b = 0; b < t.node_count(); ++b) {
      const NetNodeId src{a};
      const NetNodeId dst{b};
      const auto want = early_exit_route(t, src, dst);
      ASSERT_EQ(t.has_route(src, dst), want.has_value()) << context << " " << a << "->" << b;
      if (want) {
        EXPECT_EQ(t.route(src, dst), *want) << context << " " << a << "->" << b;
      }
    }
  }
}

TEST(Topology, RouteTreesMatchEarlyExitSearchOnRandomTopologies) {
  // Hubs joined at random, each with leaf hosts on a single uplink, and a few
  // isolated nodes, some whose only out-link is a self-loop. Latencies come
  // from a handful of values (many equal-cost ties, some zero), and some
  // links are one-way, so parts of the graph are unreachable from others.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng{seed};
    Topology t;
    const auto lat = [&rng] {
      const std::int64_t choices[] = {0, 1, 1, 2, 3, 5};
      return milliseconds(choices[rng.below(6)]);
    };
    std::vector<NetNodeId> hubs;
    const auto n_hubs = 1 + rng.below(6);
    for (std::uint64_t h = 0; h < n_hubs; ++h) hubs.push_back(t.add_node());
    for (std::uint64_t e = 0; e < n_hubs * 2; ++e) {
      const auto a = hubs[rng.below(hubs.size())];
      const auto b = hubs[rng.below(hubs.size())];
      if (a == b) continue;
      if (rng.below(4) == 0) {
        t.add_link(a, b, mbps(100), lat());
      } else {
        t.add_duplex(a, b, mbps(100), lat());
      }
    }
    for (std::uint64_t i = 0, n = rng.below(12); i < n; ++i) {
      const auto leaf = t.add_node();
      const auto hub = hubs[rng.below(hubs.size())];
      if (rng.below(5) == 0) {
        t.add_link(hub, leaf, mbps(100), lat());  // receive-only host
      } else {
        t.add_duplex(leaf, hub, mbps(100), lat());
      }
    }
    for (std::uint64_t i = 0, n = rng.below(3); i < n; ++i) {
      const auto lone = t.add_node();
      if (rng.below(2) == 0) t.add_link(lone, lone, mbps(100), lat());
    }
    expect_routes_match_search(t, "seed " + std::to_string(seed));
  }

  // A bare duplex pair: both ends have a single out-link to each other.
  Topology pair;
  const auto a = pair.add_node();
  const auto b = pair.add_node();
  pair.add_duplex(a, b, mbps(100), milliseconds(1));
  expect_routes_match_search(pair, "pair");
}

// --- Fair-share solver ---

struct SolverFlow {
  std::vector<std::uint32_t> links;
  Rate cap;
};

std::vector<Rate> max_min_rates(const std::vector<Rate>& caps, const std::vector<SolverFlow>& flows) {
  MaxMinSolver solver;
  for (const SolverFlow& f : flows) solver.add_flow(f.links, f.cap);
  solver.solve([&caps](std::uint32_t l) { return caps[l]; });
  std::vector<Rate> out;
  for (std::size_t i = 0; i < flows.size(); ++i) out.push_back(solver.rate(i));
  return out;
}

TEST(FairShare, EqualSplitOnSharedLink) {
  const std::vector<Rate> caps{100.0};
  const auto r = max_min_rates(caps, {{{0}, 1e18}, {{0}, 1e18}});
  EXPECT_NEAR(r[0], 50.0, 1e-6);
  EXPECT_NEAR(r[1], 50.0, 1e-6);
}

TEST(FairShare, CappedFlowReleasesBandwidth) {
  const std::vector<Rate> caps{100.0};
  const auto r = max_min_rates(caps, {{{0}, 10.0}, {{0}, 1e18}});
  EXPECT_NEAR(r[0], 10.0, 1e-6);
  EXPECT_NEAR(r[1], 90.0, 1e-6);
}

TEST(FairShare, MultiLinkBottleneck) {
  // Flow 0 goes over links 0+1, flow 1 over link 1 only; link 1 is thin.
  const std::vector<Rate> caps{100.0, 30.0};
  const auto r = max_min_rates(caps, {{{0, 1}, 1e18}, {{1}, 1e18}});
  EXPECT_NEAR(r[0], 15.0, 1e-6);
  EXPECT_NEAR(r[1], 15.0, 1e-6);
}

TEST(FairShare, IndependentLinksRunAtCapacity) {
  const std::vector<Rate> caps{100.0, 40.0};
  const auto r = max_min_rates(caps, {{{0}, 1e18}, {{1}, 1e18}});
  EXPECT_NEAR(r[0], 100.0, 1e-6);
  EXPECT_NEAR(r[1], 40.0, 1e-6);
}

TEST(FairShare, LoopbackGetsOwnCap) {
  const std::vector<Rate> caps{10.0};
  const auto r = max_min_rates(caps, {{{}, 55.0}, {{0}, 1e18}});
  EXPECT_NEAR(r[0], 55.0, 1e-6);
  EXPECT_NEAR(r[1], 10.0, 1e-6);
}

TEST(FairShare, ManyFlowsConserveCapacity) {
  const std::vector<Rate> caps{97.0};
  const auto r = max_min_rates(caps, std::vector<SolverFlow>(13, SolverFlow{{0}, 1e18}));
  double sum = 0;
  for (const auto x : r) sum += x;
  EXPECT_NEAR(sum, 97.0, 1e-5);
  for (const auto x : r) EXPECT_NEAR(x, 97.0 / 13, 1e-6);
}

// --- TCP phase model ---

TEST(TcpModel, SteadyRateIsWindowOverRtt) {
  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 1638400;
  EXPECT_NEAR(p.steady_rate(), 16384000.0, 1.0);
}

TEST(TcpModel, PhasesInOrder) {
  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 1000000;  // steady = 10 MB/s
  p.slow_start_bytes = 500000;
  p.slow_start_fraction = 0.5;
  p.policing_burst = 2000000;
  p.policed_fraction = 0.25;

  EXPECT_NEAR(p.rate_cap(0), 5000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(499999), 5000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(500000), 10000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(1999999), 10000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(2000000), 2500000.0, 1.0);

  EXPECT_EQ(*p.next_phase_boundary(0), 500000u);
  EXPECT_EQ(*p.next_phase_boundary(500000), 2000000u);
  EXPECT_FALSE(p.next_phase_boundary(2000000).has_value());
}

TEST(TcpModel, EffectiveThroughputPeaksAtMidSizes) {
  // The Fig-5 mechanism: throughput(size) rises through slow-start
  // amortization, then falls once policing kicks in.
  TcpProfile p;
  p.rtt = milliseconds(60);
  p.window_cap = 160000;
  p.slow_start_bytes = 3_MB;
  p.slow_start_fraction = 0.45;
  p.policing_burst = 30_MB;
  p.policed_fraction = 0.55;

  auto tput = [&](Bytes size) {
    return static_cast<double>(size) / to_seconds(analytic_transfer_time(p, size, 1e18));
  };
  const double t_small = tput(1_MB);
  const double t_mid = tput(20_MB);
  const double t_large = tput(100_MB);
  EXPECT_LT(t_small, t_mid);
  EXPECT_GT(t_mid, t_large);
}

// --- Flow engine ---

struct HomePair {
  Topology topo;
  NetNodeId a, b, sw;
};

HomePair make_lan(Rate rate = mbps(100)) {
  HomePair hp;
  hp.a = hp.topo.add_node();
  hp.b = hp.topo.add_node();
  hp.sw = hp.topo.add_node();
  hp.topo.add_duplex(hp.a, hp.sw, rate, microseconds(100));
  hp.topo.add_duplex(hp.b, hp.sw, rate, microseconds(100));
  return hp;
}

Task<> timed_transfer(Network& net, Simulation& sim, NetNodeId s, NetNodeId d, Bytes size,
                      Duration& out, TcpProfile prof = {}) {
  const TimePoint t0 = sim.now();
  co_await net.transfer(s, d, size, prof);
  out = sim.now() - t0;
}

TEST(Network, SingleFlowRunsAtLinkRate) {
  Simulation sim;
  auto hp = make_lan(/*rate=*/10.0 * 1000 * 1000);  // 10 MB/s exactly
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, took));
  sim.run();
  // 10 MB at 10 MB/s = 1 s plus sub-ms path latency.
  EXPECT_NEAR(to_seconds(took), 1.0, 0.01);
}

TEST(Network, TwoFlowsShareTheBottleneck) {
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration t1{}, t2{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t1));
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t2));
  sim.run();
  // Both flows share a→sw: each gets 5 MB/s → ~2 s.
  EXPECT_NEAR(to_seconds(t1), 2.0, 0.02);
  EXPECT_NEAR(to_seconds(t2), 2.0, 0.02);
}

TEST(Network, LateArrivalSlowsFirstFlow) {
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration t1{}, t2{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t1));
  sim.spawn([](Simulation& s, Network& n, HomePair& h, Duration& out) -> Task<> {
    co_await s.delay(milliseconds(500));
    const TimePoint t0 = s.now();
    co_await n.transfer(h.a, h.b, 5 * 1000 * 1000, {});
    out = s.now() - t0;
  }(sim, net, hp, t2));
  sim.run();
  // Flow 1 alone for 0.5 s (5 MB done), then shares: remaining 5 MB at
  // 5 MB/s = 1 s → total 1.5 s. Flow 2: 5 MB at 5 MB/s = 1 s.
  EXPECT_NEAR(to_seconds(t1), 1.5, 0.02);
  EXPECT_NEAR(to_seconds(t2), 1.0, 0.02);
}

TEST(Network, OppositeDirectionsDoNotContend) {
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration t1{}, t2{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t1));
  sim.spawn(timed_transfer(net, sim, hp.b, hp.a, 10 * 1000 * 1000, t2));
  sim.run();
  EXPECT_NEAR(to_seconds(t1), 1.0, 0.02);
  EXPECT_NEAR(to_seconds(t2), 1.0, 0.02);
}

TEST(Network, TcpPhaseBoundariesAreHonored) {
  Simulation sim;
  auto hp = make_lan(100.0 * 1000 * 1000);  // LAN far above TCP cap
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 100000;  // steady 1 MB/s
  p.slow_start_bytes = 1000000;
  p.slow_start_fraction = 0.5;
  p.policing_burst = 2000000;
  p.policed_fraction = 0.5;

  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 3 * 1000 * 1000, took, p));
  sim.run();
  // 1 MB at 0.5 MB/s (2 s) + 1 MB at 1 MB/s (1 s) + 1 MB at 0.5 MB/s (2 s)
  // = 5 s + handshake/latency.
  EXPECT_NEAR(to_seconds(took), 5.0, 0.05);
}

TEST(Network, EventDrivenMatchesAnalyticModel) {
  Simulation sim;
  auto hp = make_lan(mbps(1000));
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(60);
  p.window_cap = 160000;
  p.slow_start_bytes = 3_MB;
  p.slow_start_fraction = 0.45;
  p.policing_burst = 30_MB;
  p.policed_fraction = 0.55;

  for (const Bytes size : {2_MB, 20_MB, 60_MB}) {
    Duration took{};
    sim.spawn(timed_transfer(net, sim, hp.a, hp.b, size, took, p));
    sim.run();
    const Duration analytic = analytic_transfer_time(p, size, mbps(1000));
    EXPECT_NEAR(to_seconds(took), to_seconds(analytic), to_seconds(analytic) * 0.02 + 0.001)
        << "size=" << size;
  }
}

TEST(Network, ZeroSizeTransferCompletes) {
  // A 0-byte flow retires inside its own admission and its transfer goes on
  // at once: it costs the handshake and the path latency, and no event
  // beyond the spawn and the setup delay.
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  TcpProfile p;
  p.handshake = milliseconds(3);
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 0, took, p));
  sim.run();
  // Two hops of 0.1 ms latency plus 0.1 ms processing.
  EXPECT_EQ(took, milliseconds(3) + microseconds(400));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Network, CapacityChangeMidFlowFollowsTwoSegmentClosedForm) {
  // A lone 10 MB flow on a 10 MB/s link; at 0.5 s the link is retuned. The
  // flow runs at its old rate until then and at its new one after, which
  // holds only if its cap follows the bottleneck's new capacity.
  const auto finish = [](TcpProfile prof, Rate after) {
    Simulation sim;
    Topology t;
    const auto a = t.add_node();
    const auto b = t.add_node();
    const LinkId fwd = t.add_duplex(a, b, 10.0 * 1000 * 1000, milliseconds(1)).first;
    Network net{sim, std::move(t)};
    net.set_hop_processing(Duration::zero());
    Duration took{};
    sim.spawn(timed_transfer(net, sim, a, b, 10 * 1000 * 1000, took, prof));
    const std::pair<LinkId, Rate> retune{fwd, after};
    sim.schedule(milliseconds(500),
                 [&net, &retune] { net.set_link_capacity(retune.first, retune.second); });
    sim.run();
    return to_seconds(took);
  };
  // Raised to 20 MB/s: 0.499 s at 10 MB/s after the 1 ms setup, then the
  // remaining 5.01 MB at 20 MB/s.
  EXPECT_NEAR(finish({}, 20e6), 0.5 + (10e6 - 0.499 * 10e6) / 20e6, 1e-6);
  // In slow start at half rate throughout, lowered to 4 MB/s: 5 MB/s, then
  // 2 MB/s. A stale cap would let it run at the full 4 MB/s.
  TcpProfile slow;
  slow.slow_start_bytes = 20 * 1000 * 1000;
  slow.slow_start_fraction = 0.5;
  EXPECT_NEAR(finish(slow, 4e6), 0.5 + (10e6 - 0.499 * 5e6) / 2e6, 1e-6);
}

TEST(Network, LoopbackTransferIsCheap) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.a, 100_MB, took));
  sim.run();
  EXPECT_LT(to_seconds(took), 0.01);
}

TEST(Network, MessageLatencyIncludesHops) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(milliseconds(1));
  Duration took{};
  sim.spawn([](Simulation& s, Network& n, HomePair& h, Duration& out) -> Task<> {
    const TimePoint t0 = s.now();
    co_await n.send_message(h.a, h.b, 50);
    out = s.now() - t0;
  }(sim, net, hp, took));
  sim.run();
  // 2 hops × (0.1 ms latency + 1 ms processing) ≈ 2.2 ms.
  EXPECT_NEAR(to_milliseconds(took), 2.2, 0.3);
}

// Sends of every kind under a plan that drops half the messages, with the
// time, drops and events each one took.
struct MessageProbe {
  Simulation& sim;
  Network& net;
  const sim::FaultPlan& plan;
  obs::Ctx ctx;
  NetNodeId a, b;
  Duration path{};  // a→b latency of a 50-byte message (no jitter on make_lan)
  Duration hop{};   // per-hop processing, all a message to its own node costs
  std::uint64_t reliable_drops = 0;
  std::uint64_t retransmits_after_reliable = 0;
  int delivered_tries = 0;
};

Task<> probe_messages(MessageProbe& p) {
  const Duration loss = p.plan.spec().loss_detection;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t drops0 = p.plan.stats().messages_dropped;
    const std::uint64_t events0 = p.sim.events_executed();
    const TimePoint t0 = p.sim.now();
    co_await p.net.send_message(p.a, p.b, 50, p.ctx);
    const std::uint64_t drops = p.plan.stats().messages_dropped - drops0;
    EXPECT_EQ(p.sim.now() - t0, static_cast<std::int64_t>(drops) * loss + p.path);
    EXPECT_EQ(p.sim.events_executed() - events0, drops + 1) << "one event per attempt";
    p.reliable_drops += drops;
  }
  p.retransmits_after_reliable = p.net.stats().retransmits;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t drops0 = p.plan.stats().messages_dropped;
    const std::uint64_t events0 = p.sim.events_executed();
    const TimePoint t0 = p.sim.now();
    const bool delivered = co_await p.net.try_send_message(p.a, p.b, 50, p.ctx);
    EXPECT_EQ(delivered, p.plan.stats().messages_dropped == drops0);
    EXPECT_EQ(p.sim.now() - t0, delivered ? p.path : loss);
    EXPECT_EQ(p.sim.events_executed() - events0, 1u);
    p.delivered_tries += delivered ? 1 : 0;
  }
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t drops0 = p.plan.stats().messages_dropped;
    TimePoint t0 = p.sim.now();
    const bool delivered = co_await p.net.try_send_message(p.a, p.a, 50, p.ctx);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(p.sim.now() - t0, p.hop);
    t0 = p.sim.now();
    co_await p.net.send_message(p.b, p.b, 50, p.ctx);
    EXPECT_EQ(p.sim.now() - t0, p.hop);
    EXPECT_EQ(p.plan.stats().messages_dropped, drops0) << "a message to its own node";
  }
}

TEST(Network, MessagesUnderDropsPayLossDetectionPerDropAndOneEventPerAttempt) {
  Simulation sim{3};
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  sim::FaultSpec spec;
  spec.msg_drop = 0.5;
  spec.horizon = seconds(3600);
  auto plan = std::make_shared<sim::FaultPlan>(sim, spec);
  sim.set_fault_plan(plan);
  obs::Tracer tracer{sim, 3};
  tracer.set_enabled(true);
  MessageProbe p{sim, net, *plan, obs::Ctx{&tracer, 0}, hp.a, hp.b};
  p.path = net.sample_message_latency(hp.a, hp.b, 50);
  p.hop = net.sample_message_latency(hp.a, hp.a, 50);
  EXPECT_EQ(p.hop, microseconds(100));
  sim.spawn(probe_messages(p));
  sim.run();

  // Reliable sends: every drop is one retransmit and one dropped span.
  EXPECT_GT(p.reliable_drops, 0u);
  EXPECT_EQ(p.retransmits_after_reliable, p.reliable_drops);
  EXPECT_EQ(net.stats().retransmits, p.reliable_drops) << "unreliable sends never retransmit";
  // Unreliable sends: some got through, some were dropped.
  EXPECT_GT(p.delivered_tries, 0);
  EXPECT_LT(p.delivered_tries, 40);
  const std::uint64_t try_drops = 40 - static_cast<std::uint64_t>(p.delivered_tries);
  EXPECT_EQ(plan->stats().messages_dropped, p.reliable_drops + try_drops);

  std::uint64_t spans = 0;
  std::uint64_t dropped_spans = 0;
  for (const obs::Span& s : tracer.spans()) {
    ASSERT_EQ(s.name, "net.msg");
    ASSERT_TRUE(s.finished);
    ++spans;
    if (s.status == obs::SpanStatus::error) {
      EXPECT_EQ(s.note, "dropped");
      EXPECT_EQ(s.duration(), spec.loss_detection);
      ++dropped_spans;
    }
  }
  EXPECT_EQ(dropped_spans, plan->stats().messages_dropped);
  // One span and one counted message per attempt.
  EXPECT_EQ(spans, 40 + p.reliable_drops + 40 + 40);
  EXPECT_EQ(net.stats().messages_sent, spans);
}

TEST(Network, JitteredLinkProducesVariableRates) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, 1000 * 1000, milliseconds(30), /*latency_jitter=*/0.3, /*rate_jitter=*/0.5);

  Simulation sim{7};
  Network net{sim, std::move(t)};
  net.set_hop_processing(Duration::zero());
  Accumulator times;
  for (int i = 0; i < 30; ++i) {
    Duration took{};
    sim.spawn(timed_transfer(net, sim, a, b, 1000 * 1000, took));
    sim.run();
    times.add(to_seconds(took));
  }
  EXPECT_GT(times.stddev() / times.mean(), 0.1);  // visible variability
  EXPECT_GT(times.min(), 0.2);                    // bounded by jitter clamp
}

TEST(Network, OneEventPendingWhileFlowsRun) {
  // Every network event re-solves all flows, so only the earliest completion
  // or phase boundary is ever scheduled, however many flows are in flight.
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  std::vector<Duration> times(50);
  for (std::size_t i = 0; i < times.size(); ++i) {
    sim.spawn(timed_transfer(net, sim, i % 2 == 0 ? hp.a : hp.b, i % 2 == 0 ? hp.b : hp.a,
                             (1 + i % 7) * 100_KB, times[i]));
  }
  sim.run_until(milliseconds(50));
  ASSERT_EQ(net.active_flows(), 50u);
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.run();
  EXPECT_EQ(net.stats().flows_completed, 50u);
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(Network, StatsAreTracked) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 1_MB, took));
  sim.spawn([](Network& n, HomePair& h) -> Task<> {
    co_await n.send_message(h.a, h.b);
  }(net, hp));
  sim.run();
  EXPECT_EQ(net.stats().flows_started, 1u);
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_NEAR(net.stats().bytes_delivered, 1024.0 * 1024.0, 1.0);
}

// Property sweep: N concurrent flows through one bottleneck finish together
// and conserve capacity.
class ContentionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContentionSweep, NFlowsFinishInNTimesSingleFlowTime) {
  const int n = GetParam();
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  std::vector<Duration> times(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, times[static_cast<std::size_t>(i)]));
  }
  sim.run();
  for (const auto& t : times) {
    EXPECT_NEAR(to_seconds(t), static_cast<double>(n), 0.05 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, ContentionSweep, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace c4h::net

// --- Striped transfers (future-work extension) ------------------------------

namespace c4h::net {
namespace {

using sim::Simulation;
using sim::Task;

TEST(StripedTransfer, BeatsSingleStreamWhenWindowLimited) {
  // Per-flow cap 1 MB/s (window/rtt), link 4 MB/s: 4 stripes ≈ 4x.
  Simulation sim;
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, 4.0 * 1000 * 1000, milliseconds(1));
  Network net{sim, std::move(t)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 100000;  // 1 MB/s per flow

  Duration single{}, striped{};
  sim.run_task([](Simulation& s, Network& n, NetNodeId src, NetNodeId dst, Duration& t1,
                  Duration& t4, TcpProfile prof) -> Task<> {
    auto t0 = s.now();
    co_await n.transfer(src, dst, 8 * 1000 * 1000, prof);
    t1 = s.now() - t0;
    t0 = s.now();
    co_await n.transfer_striped(src, dst, 8 * 1000 * 1000, prof, 4);
    t4 = s.now() - t0;
  }(sim, net, a, b, single, striped, p));

  EXPECT_NEAR(to_seconds(single), 8.0, 0.1);
  EXPECT_NEAR(to_seconds(striped), 2.0, 0.1);
}

TEST(StripedTransfer, GainsCapAtTheLinkRate) {
  // Link 2 MB/s; even 8 stripes cannot beat size/link.
  Simulation sim;
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, 2.0 * 1000 * 1000, milliseconds(1));
  Network net{sim, std::move(t)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 100000;

  Duration took{};
  sim.run_task([](Simulation& s, Network& n, NetNodeId src, NetNodeId dst, Duration& out,
                  TcpProfile prof) -> Task<> {
    const auto t0 = s.now();
    co_await n.transfer_striped(src, dst, 8 * 1000 * 1000, prof, 8);
    out = s.now() - t0;
  }(sim, net, a, b, took, p));
  EXPECT_GE(to_seconds(took), 4.0 - 0.05);  // bounded by the 2 MB/s link
}

TEST(StripedTransfer, SingleStreamAndZeroBytesDegradeGracefully) {
  Simulation sim;
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, mbps(100), milliseconds(1));
  Network net{sim, std::move(t)};

  bool done = false;
  sim.run_task([](Network& n, NetNodeId src, NetNodeId dst, bool& d) -> Task<> {
    co_await n.transfer_striped(src, dst, 1_MB, {}, 1);
    co_await n.transfer_striped(src, dst, 0, {}, 4);
    co_await n.transfer_striped(src, dst, 3, {}, 4);  // size < streams
    d = true;
  }(net, a, b, done));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace c4h::net
