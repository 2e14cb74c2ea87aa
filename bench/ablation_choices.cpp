// Ablations of the design choices called out in DESIGN.md §6 (split out of
// the original ablation_design binary, which now hosts the learned-vs-static
// placement ablation — DESIGN.md §15):
//   1. metadata path caching on/off (lookup latency under skewed access);
//   2. replication factor (data survival under failure vs message cost);
//   3. monitoring period (messaging overhead vs record staleness);
//   4. decision policy (performance vs balanced vs battery under load);
//   5. blocking vs non-blocking store (ack round-trip cost).
#include "bench/bench_util.hpp"
#include "src/kv/central.hpp"
#include "src/trace/edonkey.hpp"

namespace c4h {
namespace {

using sim::Task;

// --- 1. Path caching ------------------------------------------------------

void ablate_caching(obs::BenchReport& report) {
  bench::header("Ablation 1 — metadata path caching", "DESIGN.md §6.1");
  std::printf("%10s | %16s | %14s\n", "caching", "mean get (ms)", "cache hits");
  bench::row_line();
  for (const bool caching : {false, true}) {
    vstore::HomeCloudConfig cfg;
    cfg.kv.path_caching = caching;
    cfg.start_monitors = false;
    vstore::HomeCloud hc{cfg};
    hc.bootstrap();
    Accumulator lat;
    hc.run([&](vstore::HomeCloud& h) -> Task<> {
      // One hot key, fetched repeatedly from every node (Zipf head case).
      const Key k = Key::from_name("hot-entry");
      (void)co_await h.kv().put(h.node(0).chimera(), k, Buffer(200, 1));
      for (int i = 0; i < 60; ++i) {
        auto& origin = h.node(static_cast<std::size_t>(i) % h.node_count());
        const auto t0 = h.sim().now();
        (void)co_await h.kv().get(origin.chimera(), k);
        lat.add(to_milliseconds(h.sim().now() - t0));
      }
    }(hc));
    std::printf("%10s | %16.3f | %14llu\n", caching ? "on" : "off", lat.mean(),
                static_cast<unsigned long long>(hc.kv().stats().cache_hits +
                                                hc.kv().stats().local_hits));
    const std::string label = caching ? "caching=on" : "caching=off";
    report.add(label, "kv.get.mean", lat.mean(), "ms");
    report.add(label, "kv.get.hits",
               static_cast<double>(hc.kv().stats().cache_hits + hc.kv().stats().local_hits),
               "count");
  }
}

// --- 2. Replication factor -------------------------------------------------

void ablate_replication(obs::BenchReport& report) {
  bench::header("Ablation 2 — replication factor vs failure survival", "DESIGN.md §6.2");
  std::printf("%6s | %12s | %16s\n", "R", "keys lost", "repl. messages");
  bench::row_line();
  for (const int r : {0, 1, 2, 3}) {
    vstore::HomeCloudConfig cfg;
    cfg.kv.replication = r;
    cfg.start_monitors = false;
    cfg.start_stabilization = true;
    cfg.overlay.stabilize_period = milliseconds(500);
    vstore::HomeCloud hc{cfg};
    hc.bootstrap();
    int lost = 0;
    hc.run([&](vstore::HomeCloud& h) -> Task<> {
      std::vector<Key> keys;
      for (int i = 0; i < 60; ++i) {
        const Key k = Key::from_name("abl2-" + std::to_string(i));
        keys.push_back(k);
        (void)co_await h.kv().put(h.node(0).chimera(), k, Buffer(100, 7));
      }
      co_await h.sim().delay(seconds(2));  // replication settles
      h.overlay().crash(h.node(2).chimera());
      co_await h.sim().delay(seconds(6));  // detection + repair
      for (const Key k : keys) {
        auto got = co_await h.kv().get(h.node(0).chimera(), k);
        lost += !got.ok();
      }
    }(hc));
    std::printf("%6d | %12d | %16llu\n", r, lost,
                static_cast<unsigned long long>(hc.kv().stats().replication_msgs));
    const std::string label = "replication=" + std::to_string(r);
    report.add(label, "kv.keys_lost", lost, "count");
    report.add(label, "kv.replication_msgs",
               static_cast<double>(hc.kv().stats().replication_msgs), "count");
  }
}

// --- 3. Monitoring period ---------------------------------------------------

void ablate_monitoring(obs::BenchReport& report) {
  bench::header("Ablation 3 — monitoring period: messages vs staleness", "DESIGN.md §6.3");
  std::printf("%12s | %14s | %18s\n", "period", "messages/min", "max staleness (s)");
  bench::row_line();
  for (const auto period : {milliseconds(500), seconds(2), seconds(10)}) {
    vstore::HomeCloudConfig cfg;
    cfg.monitor.period = period;
    vstore::HomeCloud hc{cfg};
    hc.bootstrap();
    const auto msgs0 = hc.network().stats().messages_sent;
    const auto t0 = hc.sim().now();
    hc.sim().run_until(t0 + seconds(60));
    const double per_min =
        static_cast<double>(hc.network().stats().messages_sent - msgs0);
    std::printf("%10.1fs | %14.0f | %18.1f\n", to_seconds(period), per_min,
                to_seconds(period));
    const std::string label = "period=" + std::to_string(to_seconds(period)) + "s";
    report.add(label, "monitor.msgs_per_min", per_min, "count");
  }
}

// --- 4. Decision policy -----------------------------------------------------

const char* policy_name(vstore::DecisionPolicy p) {
  switch (p) {
    case vstore::DecisionPolicy::performance: return "performance";
    case vstore::DecisionPolicy::balanced_utilization: return "balanced";
    case vstore::DecisionPolicy::battery_aware: return "battery-aware";
    case vstore::DecisionPolicy::learned: return "learned";
  }
  return "?";
}

// Scenario A: the fastest candidate is an idle netbook running on a nearly
// dead battery; the requester is a loaded but mains-powered device.
// performance/balanced offload to the drained netbook; battery-aware spares
// it and stays on the plugged-in requester.
void policy_scenario_a(vstore::DecisionPolicy policy, obs::BenchReport& report) {
  vstore::HomeCloudConfig cfg;
  cfg.netbooks = 0;
  cfg.with_desktop = false;
  cfg.start_monitors = false;
  vstore::HomeCloud hc{cfg};
  // Requester netbook is plugged in (no battery constraint); peer runs on
  // battery.
  auto plugged = vstore::HomeCloudConfig::netbook_spec("netbook-plugged");
  plugged.host.battery.capacity_wh = 0;
  hc.add_node(plugged);
  hc.add_node(vstore::HomeCloudConfig::netbook_spec("netbook-battery"));
  hc.bootstrap();
  auto x264 = services::x264_profile();
  hc.registry().add_profile(x264);
  hc.node(0).deploy_service(x264);
  hc.node(1).deploy_service(x264);

  double took = 0;
  std::string picked;
  hc.run([&](vstore::HomeCloud& h) -> Task<> {
    (void)co_await h.node(0).publish_services();
    (void)co_await h.node(1).publish_services();
    // Requester: plugged in (treat as full), but CPU half-busy.
    h.node(0).host().set_battery_fraction(1.0);
    h.sim().spawn([](vstore::HomeCloud& hh) -> Task<> {
      co_await hh.node(0).host().execute(hh.node(0).app_domain(), 5000.0, 1);
    }(h));
    // Peer: idle but nearly out of battery.
    h.node(1).host().set_battery_fraction(0.1);
    co_await h.sim().delay(milliseconds(100));
    for (std::size_t i = 0; i < h.node_count(); ++i) {
      co_await h.node(i).monitor().publish_once();
    }
    auto s = co_await bench::put_object(h.node(0), bench::make_object("a.avi", 20_MB, "avi"));
    if (!s.ok()) co_return;
    const auto t0 = h.sim().now();
    auto res = co_await h.node(0).process("a.avi", x264, policy);
    if (!res.ok()) co_return;
    took = to_seconds(h.sim().now() - t0);
    picked = res->site.node == h.node(0).chimera().id() ? "requester(busy,plugged)"
                                                        : "peer(idle,battery 10%)";
  }(hc));
  std::printf("%4s %18s | %12.1f | %s\n", "A", policy_name(policy), took, picked.c_str());
  report.add(std::string("A/") + policy_name(policy), "process.time", took, "s");
}

// Scenario B: requester idle, a second netbook idle, the desktop loaded.
// performance still offloads to the (much faster) loaded desktop;
// balanced spreads to the idle requester instead.
void policy_scenario_b(vstore::DecisionPolicy policy, obs::BenchReport& report) {
  vstore::HomeCloudConfig cfg;
  cfg.netbooks = 2;
  cfg.start_monitors = false;
  vstore::HomeCloud hc{cfg};
  hc.bootstrap();
  auto x264 = services::x264_profile();
  hc.registry().add_profile(x264);
  hc.node(0).deploy_service(x264);
  hc.node(1).deploy_service(x264);
  hc.desktop().deploy_service(x264);

  double took = 0;
  std::string picked;
  hc.run([&](vstore::HomeCloud& h) -> Task<> {
    for (std::size_t i = 0; i < h.node_count(); ++i) {
      (void)co_await h.node(i).publish_services();
    }
    // Desktop: two of four cores busy.
    h.sim().spawn([](vstore::HomeCloud& hh) -> Task<> {
      co_await hh.desktop().host().execute(hh.desktop().app_domain(), 5000.0, 2);
    }(h));
    co_await h.sim().delay(milliseconds(100));
    for (std::size_t i = 0; i < h.node_count(); ++i) {
      co_await h.node(i).monitor().publish_once();
    }
    auto s = co_await bench::put_object(h.node(0), bench::make_object("b.avi", 20_MB, "avi"));
    if (!s.ok()) co_return;
    const auto t0 = h.sim().now();
    auto res = co_await h.node(0).process("b.avi", x264, policy);
    if (!res.ok()) co_return;
    took = to_seconds(h.sim().now() - t0);
    picked = res->site.node == h.desktop().chimera().id()
                 ? "desktop(loaded,mains)"
                 : (res->site.node == h.node(0).chimera().id() ? "requester(idle,battery)"
                                                               : "netbook-1(idle,battery)");
  }(hc));
  std::printf("%4s %18s | %12.1f | %s\n", "B", policy_name(policy), took, picked.c_str());
  report.add(std::string("B/") + policy_name(policy), "process.time", took, "s");
}

void ablate_policy(obs::BenchReport& report) {
  bench::header("Ablation 4 — decision policies pick different sites", "DESIGN.md §6.4");
  std::printf("%4s %18s | %12s | %s\n", "", "policy", "time (s)", "picked");
  bench::row_line();
  using vstore::DecisionPolicy;
  for (const auto policy : {DecisionPolicy::performance, DecisionPolicy::balanced_utilization,
                            DecisionPolicy::battery_aware}) {
    policy_scenario_a(policy, report);
  }
  bench::row_line();
  for (const auto policy : {DecisionPolicy::performance, DecisionPolicy::balanced_utilization,
                            DecisionPolicy::battery_aware}) {
    policy_scenario_b(policy, report);
  }
}

// --- 5. Blocking vs non-blocking store --------------------------------------

void ablate_blocking(obs::BenchReport& report) {
  bench::header("Ablation 5 — blocking vs non-blocking store", "DESIGN.md §6.5");
  std::printf("%10s | %16s | %16s\n", "size", "blocking (ms)", "non-block (ms)");
  bench::row_line();
  for (const Bytes size : {1_MB, 10_MB, 50_MB}) {
    vstore::HomeCloudConfig cfg;
    cfg.start_monitors = false;
    vstore::HomeCloud hc{cfg};
    hc.bootstrap();
    double t_block = 0, t_nb = 0;
    hc.run([&, size](vstore::HomeCloud& h) -> Task<> {
      auto& n = h.node(0);
      {
        const auto t0 = h.sim().now();
        (void)co_await bench::put_object(n, bench::make_object("b.bin", size));
        t_block = to_milliseconds(h.sim().now() - t0);
      }
      {
        vstore::StoreOptions opts;
        opts.blocking = false;
        const auto t0 = h.sim().now();
        (void)co_await bench::put_object(n, bench::make_object("nb.bin", size), opts);
        t_nb = to_milliseconds(h.sim().now() - t0);
        co_await h.sim().delay(seconds(30));  // drain the async tail
      }
    }(hc));
    std::printf("%8.0fMB | %16.0f | %16.0f\n", to_mib(size), t_block, t_nb);
    const std::string label = std::to_string(size / 1_MB) + "MB";
    report.add(label, "store.blocking", t_block, "ms");
    report.add(label, "store.non_blocking", t_nb, "ms");
  }
}

// --- 6. Metadata layer: DHT vs centralized -----------------------------------

void ablate_metadata_layer(obs::BenchReport& report) {
  bench::header("Ablation 6 — metadata layer: DHT+caching vs centralized",
                "§III-A \"alternative implementations of this layer\"");
  std::printf("%12s | %14s %14s | %s\n", "layer", "mean get (ms)", "p95 (ms)",
              "coordinator msgs / survives crash");
  bench::row_line();

  vstore::HomeCloudConfig cfg;
  cfg.start_monitors = false;
  vstore::HomeCloud hc{cfg};
  hc.bootstrap();
  kv::CentralizedMetadata central{hc.overlay(), hc.desktop().chimera()};

  Accumulator dht_ms, central_ms;
  obs::LogHistogram dht_ns, central_ns;
  hc.run([&](vstore::HomeCloud& h) -> Task<> {
    Rng rng{31};
    for (int i = 0; i < 30; ++i) {
      const Key k = Key::from_name("m6-" + std::to_string(i));
      Buffer v(150, 3);
      (void)co_await h.kv().put(h.node(0).chimera(), k, v);
      (void)co_await central.put(h.node(0).chimera(), k, v);
    }
    for (int i = 0; i < 120; ++i) {
      const Key k = Key::from_name("m6-" + std::to_string(rng.zipf(30, 1.0)));
      auto& origin = h.node(rng.below(h.node_count()));
      auto t0 = h.sim().now();
      (void)co_await h.kv().get(origin.chimera(), k);
      dht_ms.add(to_milliseconds(h.sim().now() - t0));
      dht_ns.record(static_cast<std::uint64_t>((h.sim().now() - t0).count()));
      t0 = h.sim().now();
      (void)co_await central.get(origin.chimera(), k);
      central_ms.add(to_milliseconds(h.sim().now() - t0));
      central_ns.record(static_cast<std::uint64_t>((h.sim().now() - t0).count()));
    }
  }(hc));

  const double dht_p95 = static_cast<double>(dht_ns.quantile(95.0)) * 1e-6;
  const double central_p95 = static_cast<double>(central_ns.quantile(95.0)) * 1e-6;
  std::printf("%12s | %14.2f %14.2f | load spread over ring; survives any\n", "DHT+cache",
              dht_ms.mean(), dht_p95);
  std::printf("%12s | %14s %14s |   single crash (replicas promote)\n", "", "", "");
  std::printf("%12s | %14.2f %14.2f | %llu msgs through one node; a\n", "centralized",
              central_ms.mean(), central_p95,
              static_cast<unsigned long long>(central.stats().coordinator_messages));
  std::printf("%12s | %14s %14s |   coordinator crash loses everything\n", "", "", "");
  report.add("dht", "metadata.get.mean", dht_ms.mean(), "ms");
  report.add("dht", "metadata.get.p95", dht_p95, "ms");
  report.add("central", "metadata.get.mean", central_ms.mean(), "ms");
  report.add("central", "metadata.get.p95", central_p95, "ms");

  std::printf("\nThe flat centralized lookup is competitive at home scale, but every\n");
  std::printf("operation funnels through one device and one failure point — why the\n");
  std::printf("paper builds on a DHT despite the extra routing machinery.\n");
}

}  // namespace
}  // namespace c4h

int main() {
  c4h::obs::BenchReport report("ablation_choices", 42);
  c4h::ablate_caching(report);
  c4h::ablate_replication(report);
  c4h::ablate_monitoring(report);
  c4h::ablate_policy(report);
  c4h::ablate_blocking(report);
  c4h::ablate_metadata_layer(report);
  c4h::bench::emit(report);
  return 0;
}
