// Scaling study — §VII future work (iii): "understand how to scale to
// larger numbers of @home and then in the cloud participants".
//
// Sweeps the overlay size from the paper's 6-node home to office/hospital
// scale and reports routing hops, metadata lookup latency, join cost, and
// maintenance traffic — the quantities that decide whether the DHT design
// holds up beyond one living room. Also quantifies the striped-transfer
// extension (future work: "better object transfer protocols").
#include <algorithm>
#include <cmath>

#include "bench/bench_util.hpp"
#include "src/sim/sync.hpp"

namespace c4h {
namespace {

using sim::Task;

void overlay_scaling(obs::BenchReport& report, bool quick) {
  bench::header("Scaling — overlay size vs routing cost", "§VII future work (iii)");
  std::printf("%8s | %10s %10s | %14s | %16s\n", "nodes", "avg hops", "max hops",
              "lookup (ms)", "join msgs/node");
  bench::row_line();

  std::vector<int> sweep{6, 12, 24, 48, 96, 192};
  if (quick) sweep = {6, 12, 24, 48};
  for (const int n : sweep) {
    vstore::HomeCloudConfig cfg;
    cfg.netbooks = n;
    cfg.with_desktop = false;
    cfg.start_monitors = false;
    vstore::HomeCloud hc{cfg};
    hc.bootstrap();

    Accumulator hops;
    Samples lookup_ms;
    hc.run([&](vstore::HomeCloud& h) -> Task<> {
      // Seed some metadata, then measure lookups from random origins.
      Rng rng{static_cast<std::uint64_t>(n)};
      for (int i = 0; i < 40; ++i) {
        const Key k = Key::from_name("scale/" + std::to_string(i));
        (void)co_await h.kv().put(h.node(rng.below(h.node_count())).chimera(), k,
                                  Buffer(120, 1));
      }
      for (int i = 0; i < 40; ++i) {
        const Key k = Key::from_name("scale/" + std::to_string(i));
        auto& origin = h.node(rng.below(h.node_count()));
        auto routed = co_await h.overlay().route(origin.chimera(), k);
        if (routed.ok()) hops.add(routed->hops);
        const auto t0 = h.sim().now();
        (void)co_await h.kv().get(origin.chimera(), k);
        lookup_ms.add(to_milliseconds(h.sim().now() - t0));
      }
    }(hc));

    const double join_msgs = static_cast<double>(hc.overlay().stats().join_messages) / n;
    std::printf("%8d | %10.2f %10.0f | %14.2f | %16.1f\n", n, hops.mean(), hops.max(),
                lookup_ms.mean(), join_msgs);

    const std::string label = std::to_string(n) + "nodes";
    report.add(label, "overlay.hops.mean", hops.mean(), "hops");
    report.add(label, "overlay.hops.max", hops.max(), "hops");
    report.add(label, "overlay.lookup.mean", lookup_ms.mean(), "ms");
    report.add(label, "overlay.join_msgs_per_node", join_msgs, "count");
  }
  std::printf("\nshape checks: hop count grows slowly (prefix routing), lookup cost\n");
  std::printf("stays in the milliseconds; join traffic per node grows with density\n");
  std::printf("(the full-membership announcements the paper flags as future work).\n");
}

void striped_transfers(obs::BenchReport& report, bool quick) {
  bench::header("Scaling — striped cloud transfers", "§VII 'better object transfer protocols'");
  std::printf("%8s | %12s %12s %12s | %s\n", "object", "1 stream", "2 streams", "4 streams",
              "speedup(4)");
  bench::row_line();

  std::vector<Bytes> objects{8_MB, 20_MB, 60_MB};
  if (quick) objects = {8_MB, 20_MB};
  for (const Bytes size : objects) {
    double times[3] = {0, 0, 0};
    const int streams[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      vstore::HomeCloudConfig cfg;
      cfg.start_monitors = false;
      cfg.wan_rate_jitter = 0.0;
      cfg.wan_latency_jitter = 0.0;
      // Striping shows its value when per-flow caps (window / slow start /
      // policing) bind below the link: give the uplink headroom.
      cfg.wan_up = mib_per_sec(4.0);
      vstore::HomeCloud hc{cfg};
      hc.bootstrap();

      // Per-flow cap ~1.3 MiB/s: window-limited below the 4 MiB/s link.
      net::TcpProfile p = cfg.transport.profile();
      p.window_cap = Bytes{81920};
      p.rtt = milliseconds(60);

      hc.run([&, size, i](vstore::HomeCloud& h) -> Task<> {
        const auto t0 = h.sim().now();
        co_await h.network().transfer_striped(h.node(0).chimera().net_node(),
                                              h.cloud_endpoint(), size, p, streams[i]);
        times[i] = to_seconds(h.sim().now() - t0);
      }(hc));
    }
    std::printf("%6.0fMB | %12.1f %12.1f %12.1f | %9.2fx\n", to_mib(size), times[0], times[1],
                times[2], times[0] / times[2]);

    const std::string label = std::to_string(size / 1_MB) + "MB";
    report.add(label, "striped.1stream", times[0], "s");
    report.add(label, "striped.2streams", times[1], "s");
    report.add(label, "striped.4streams", times[2], "s");
  }
  std::printf("\nshape checks: striping approaches the link rate as streams x window\n");
  std::printf("exceeds it; gains saturate once the access link binds.\n");
}

// Core-engine scaling: drives the raw Simulation/Network engine (slab event
// arena, one pending flow event, per-switch route trees) far past overlay
// scale, where the full HomeCloud stack (O(n²) overlay joins) cannot go.
//
// Topology is a two-level star: `kFan` leafs per edge switch, switches on a
// metro gateway, gateway on the cloud. Every leaf makes one intra-switch
// transfer to its ring neighbor (small flows on disjoint links) and every
// 16th leaf also pushes an object up the shared cloud path (flows that share
// the gateway trunk); starts are staggered so a bounded set of flows is in
// flight at any instant, like a real evening of @home traffic.
//
// The flows/events/bytes/makespan series are simulated and byte-stable for
// a seed; the wall/rss columns are host-side costs ("-wall" units, advisory
// in tools/bench-compare). Peak RSS is cumulative per process, which is why
// the sweep runs sizes in ascending order.
void core_engine_scaling(obs::BenchReport& report, const bench::BenchArgs& args) {
  bench::header("Scaling — simulator core, raw engine to 10k nodes",
                "§VII future work (iii), engine only");
  std::printf("(wall/rss are host-side, advisory)\n");
  std::printf("%8s | %9s %10s | %12s | %10s %9s\n", "nodes", "flows", "events", "makespan(s)",
              "wall (ms)", "rss (MB)");
  bench::row_line();

  std::vector<int> sweep{48, 192, 1000, 10000};
  if (args.quick) sweep = {48, 192, 1000};

  for (const int n : sweep) {
    sim::Simulation sim{args.seed + static_cast<std::uint64_t>(n)};
    net::Topology topo;
    constexpr int kFan = 100;
    const auto cloud = topo.add_node();
    const auto gateway = topo.add_node();
    topo.add_duplex(gateway, cloud, mib_per_sec(400.0), milliseconds(18));
    std::vector<net::NetNodeId> switches((static_cast<std::size_t>(n) + kFan - 1) / kFan);
    for (auto& s : switches) {
      s = topo.add_node();
      topo.add_duplex(s, gateway, mib_per_sec(120.0), milliseconds(1));
    }
    std::vector<net::NetNodeId> leafs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      leafs[static_cast<std::size_t>(i)] = topo.add_node();
      topo.add_duplex(leafs[static_cast<std::size_t>(i)], switches[static_cast<std::size_t>(i / kFan)],
                      mib_per_sec(11.9), microseconds(200));
    }
    net::Network net{sim, std::move(topo)};

    bench::WallTimer wt;
    const auto staggered = [](sim::Simulation& sm, net::Network& nw, net::NetNodeId a,
                              net::NetNodeId b, Bytes sz, Duration start) -> Task<> {
      co_await sm.delay(start);
      co_await nw.transfer(a, b, sz);
    };
    for (int i = 0; i < n; ++i) {
      const int group = i / kFan;
      const int group_size = std::min(kFan, n - group * kFan);
      const int peer = group * kFan + (i % kFan + 1) % group_size;
      const Bytes local = 96_KB + static_cast<Bytes>(i % 7) * 32_KB;
      sim.spawn(staggered(sim, net, leafs[static_cast<std::size_t>(i)],
                          leafs[static_cast<std::size_t>(peer)], local, microseconds(400) * i));
      if (i % 16 == 0) {
        const Bytes up = 256_KB + static_cast<Bytes>(i % 5) * 64_KB;
        sim.spawn(staggered(sim, net, leafs[static_cast<std::size_t>(i)], cloud, up,
                            microseconds(400) * i + milliseconds(2)));
      }
    }
    sim.run();

    const double wall = wt.elapsed_ms();
    const double rss = bench::peak_rss_mb();
    const auto flows = static_cast<double>(net.stats().flows_completed);
    const auto events = static_cast<double>(sim.events_executed());
    const double makespan_s = to_seconds(sim.now());
    std::printf("%8d | %9.0f %10.0f | %12.2f | %10.1f %9.1f\n", n, flows, events, makespan_s,
                wall, rss);

    const std::string label = std::to_string(n) + "nodes";
    report.add(label, "core.flows", flows, "count");
    report.add(label, "core.events", events, "count");
    report.add(label, "core.bytes", net.stats().bytes_delivered, "bytes");
    report.add(label, "core.makespan", std::round(to_milliseconds(sim.now())), "ms");
    report.add(label, "core.wall", wall, "ms-wall");
    report.add(label, "core.rss", rss, "mb-wall");
  }
  std::printf("\nshape checks: events grow linearly in nodes; every flow event re-solves\n");
  std::printf("all flows in flight, so wall-clock per event stays in microseconds;\n");
  std::printf("memory is dominated by topology and route trees, not the event queue.\n");
}

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  const auto args = c4h::bench::parse_args(argc, argv);
  c4h::obs::BenchReport report("scaling_study", args.seed);
  c4h::overlay_scaling(report, args.quick);
  c4h::striped_transfers(report, args.quick);
  c4h::core_engine_scaling(report, args);
  c4h::bench::emit(report);
  return 0;
}
