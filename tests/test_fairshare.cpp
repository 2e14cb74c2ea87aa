// Property tests for the flow engine's fair sharing.
//
// MaxMinSolver (src/net/fairshare.hpp) is the one water-filling in the
// simulator. It must equal the textbook progressive-filling loop it replaced
// — kept below as oracle_rates() — bit for bit, on random programs and with
// its scratch reused across solves of changing shape.
//
// The Network-level suite then drives randomized transfer programs over
// default, slow-start, policed, jittered and striped transports: every
// transfer must complete, every flow must retire, and a rerun of the same
// seed must finish each transfer at the same nanosecond.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <ostream>
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

// ---- Network-level programs -------------------------------------------------

struct Star {
  sim::Simulation sim;
  Topology topo;
  std::vector<NetNodeId> leafs;

  Star(std::uint64_t seed, int n_leafs, double rate_jitter) : sim{seed} {
    const NetNodeId hub = topo.add_node();
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

// Prints a transport as its name, so test listings stay readable and stable.
void PrintTo(const Transport& t, std::ostream* os) { *os << t.name; }

const Transport kTransports[] = {
    {"default", {}},
    {"slow_start", phased(96_KB, 0)},
    {"policed", phased(0, 256_KB)},
    {"slow_start_policed_jitter", phased(96_KB, 256_KB), 0.4},
    {"striped", phased(96_KB, 256_KB), 0.0, 3},
};

// Runs a randomized transfer program and returns each transfer's completion
// time in nanoseconds, keyed by transfer index.
std::vector<std::int64_t> run_program(std::uint64_t seed, const Transport& transport) {
  Star star{seed, 6, transport.rate_jitter};
  Network net{star.sim, std::move(star.topo)};

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

class NetworkProgram : public ::testing::TestWithParam<Transport> {};

TEST_P(NetworkProgram, CompletesEveryTransferAndReplaysExactly) {
  // The phased transports make flows cross TCP phase boundaries while other
  // flows' events re-rate them; striping makes stripes cross them together.
  const Transport& tr = GetParam();
  for (const std::uint64_t seed : {5ull, 29ull, 101ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto first = run_program(seed, tr);
    EXPECT_EQ(first, run_program(seed, tr));
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, NetworkProgram, ::testing::ValuesIn(kTransports));

}  // namespace
}  // namespace c4h::net
