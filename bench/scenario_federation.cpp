// Scenario: city-scale federation (DESIGN.md §12) — a
// metro City of neighborhoods (leaf/spine wide-area core, geo-spread spine
// latencies), two homes per neighborhood, tenants homed round-robin across
// neighborhoods fetching each other's published objects through the
// GeoFederation's geo-aware replica selection — with mild crash/restart
// churn and a periodic repair sweep healing replica sets. Both start with
// the run, so at the default sizes they end inside the driver's preload
// (DESIGN.md §12).
//
// The headline series: fetch-latency tails (p50/p99/p999) split by the
// four serving tiers — local / neighborhood / wide_area / cloud — the cost
// pyramid the two-tier architecture exists to preserve.
#include <memory>

#include "bench/scenario_util.hpp"
#include "src/sim/sync.hpp"
#include "src/workload/workload.hpp"

namespace c4h {
namespace {

using sim::Task;

constexpr int kHomesPerHood = 2;

// Names are built with append(): GCC 12 reports a false -Wrestrict on
// "literal" + std::string.
std::string tenant_name(int t) { return std::string("t").append(std::to_string(t)); }

workload::WorkloadSpec make_spec(const bench::BenchArgs& args, int tenant_count) {
  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = args.quick ? seconds(15) : seconds(60);

  for (int t = 0; t < tenant_count; ++t) {
    workload::TenantSpec ts;
    ts.name = tenant_name(t);
    ts.principal = {ts.name, vstore::TrustLevel::trusted};
    // Fetch-heavy, with the occasional re-store (which republishes).
    ts.mix = {0.2, 0.8, 0.0, 0.0};
    ts.object_count = args.quick ? 6 : 20;
    ts.size = {64_KB, 512_KB};
    ts.zipf_s = 0.8;
    // Tenant homes interleave across neighborhoods (City::all_homes), so
    // the next two tenants live in other neighborhoods: most fetch traffic
    // is cross-neighborhood by construction.
    ts.fetch_from = {tenant_name((t + 1) % tenant_count),
                     tenant_name((t + 2) % tenant_count)};
    ts.arrival.rate_per_sec = args.quick ? 2.0 : 4.0;
    spec.tenants.push_back(ts);
  }
  return spec;
}

void run(const bench::BenchArgs& args) {
  bench::header("Scenario — city-scale federation",
                "§VII (v) grown metro-scale: two-tier overlay, geo-aware replicas");

  bench::BenchArgs a = args;
  if (a.neighborhoods < 4) a.neighborhoods = 4;
  if (a.nodes < 3) a.nodes = 3;  // per home

  vstore::City city{{.seed = a.seed, .spines = 2}};
  std::vector<std::unique_ptr<vstore::Neighborhood>> hoods;
  std::vector<std::unique_ptr<vstore::HomeCloud>> homes;
  for (int h = 0; h < a.neighborhoods; ++h) {
    vstore::NeighborhoodConfig nc;
    nc.name = std::string("hood-").append(std::to_string(h));
    // Geographic spread: each neighborhood sits farther from the metro
    // core, so inter-neighborhood latency grows with index distance.
    nc.spine_latency = milliseconds(1 + 3 * h);
    hoods.push_back(std::make_unique<vstore::Neighborhood>(city, nc));
    for (int i = 0; i < kHomesPerHood; ++i) {
      vstore::HomeCloudConfig hc;
      hc.netbooks = a.nodes - 1;
      hc.with_desktop = true;
      hc.seed = a.seed + static_cast<std::uint64_t>(h * kHomesPerHood + i);
      hc.home_name =
          std::string("h").append(std::to_string(h)).append("-").append(std::to_string(i));
      hc.kv.replication = 2;
      hc.start_monitors = false;
      homes.push_back(std::make_unique<vstore::HomeCloud>(*hoods.back(), hc));
    }
  }
  for (auto& hc : homes) hc->bootstrap();

  federation::GeoFederation fed{city, {.replication = 2}};
  const int tenant_count = static_cast<int>(homes.size());
  const workload::WorkloadSpec spec = make_spec(a, tenant_count);
  workload::Driver driver{city, spec, &fed};
  const workload::Schedule schedule = workload::generate(spec);
  std::printf("city: %d neighborhoods x %d homes x %d nodes; %zu ops, %zu objects\n\n",
              a.neighborhoods, kHomesPerHood, a.nodes, schedule.ops.size(),
              schedule.objects.size());

  // Mild churn: crashes and restarts only (message faults off — this bench
  // measures placement, not retransmission), flaps effectively disabled.
  sim::FaultSpec fault;
  fault.mean_crash_interval = seconds(8);
  fault.mean_downtime = seconds(4);
  fault.mean_flap_interval = seconds(86400);  // flaps effectively off
  fault.horizon = spec.duration * 6 / 10;
  sim::FaultPlan& plan = city.enable_chaos(fault);

  city.run([](vstore::City& c, federation::GeoFederation& f, workload::Driver& d,
              const workload::Schedule& s, Duration duration) -> Task<> {
    std::vector<Task<>> tasks;
    tasks.push_back(d.drive(s));
    // Repair sweeps every 5 s for the run's duration (bounded, so the
    // bench terminates even when the driver drains early).
    tasks.push_back([](vstore::City& cc, federation::GeoFederation& ff,
                       Duration total) -> Task<> {
      const int sweeps = static_cast<int>(total / seconds(5));
      for (int i = 0; i < sweeps; ++i) {
        co_await cc.sim().delay(seconds(5));
        const std::size_t healed = co_await ff.repair_scan();
        (void)healed;
      }
    }(c, f, duration));
    co_await sim::when_all(c.sim(), std::move(tasks));
    const std::size_t final_heal = co_await f.repair_scan();
    (void)final_heal;
  }(city, fed, driver, schedule, spec.duration));

  // Per-path table.
  std::printf("%-13s | %8s | %9s %9s %9s\n", "path", "fetches", "p50(ms)", "p99(ms)",
              "p999(ms)");
  bench::row_line();
  const federation::GeoStats& fs = fed.stats();
  for (std::size_t p = 0; p < federation::kFetchPaths; ++p) {
    const std::string label = federation::to_string(static_cast<federation::FetchPath>(p));
    const obs::LogHistogram& h = fs.latency[p];
    std::printf("%-13s | %8llu |", label.c_str(), static_cast<unsigned long long>(h.count()));
    if (h.count() == 0) {
      std::printf(" %9s %9s %9s\n", "-", "-", "-");  // a tier that served nothing
      continue;
    }
    const double ms = 1e-6;
    std::printf(" %9.1f %9.1f %9.1f\n", static_cast<double>(h.quantile(50.0)) * ms,
                static_cast<double>(h.quantile(99.0)) * ms,
                static_cast<double>(h.quantile(99.9)) * ms);
  }
  std::printf(
      "\nfederation: %llu published, %llu replicas placed, %llu repairs "
      "(%llu unhealable), %llu fetch errors, %llu cross-neighborhood fetches\n",
      static_cast<unsigned long long>(fs.published),
      static_cast<unsigned long long>(fs.replicas_placed),
      static_cast<unsigned long long>(fs.repairs),
      static_cast<unsigned long long>(fs.repair_failures),
      static_cast<unsigned long long>(fs.fetch_errors),
      static_cast<unsigned long long>(driver.result().cross_hood_fetches));
  std::printf("churn: %llu crashes, %llu restarts\n",
              static_cast<unsigned long long>(plan.stats().crashes),
              static_cast<unsigned long long>(plan.stats().restarts));

  obs::BenchReport report("scenario_federation", a.seed);
  report.meta("quick", a.quick ? "true" : "false");
  report.meta("neighborhoods", std::to_string(a.neighborhoods));
  report.meta("homes_per_neighborhood", std::to_string(kHomesPerHood));
  report.meta("nodes_per_home", std::to_string(a.nodes));
  report.meta("replication", "2");
  report.meta("tenants", std::to_string(tenant_count));
  for (std::size_t p = 0; p < federation::kFetchPaths; ++p) {
    const std::string label = federation::to_string(static_cast<federation::FetchPath>(p));
    report.add("path=" + label, "fed.fetch.count", static_cast<double>(fs.latency[p].count()),
               "count");
    obs::add_latency_tails(report, "path=" + label, "fed.fetch.latency", fs.latency[p]);
  }
  report.add("federation", "published", static_cast<double>(fs.published), "count");
  report.add("federation", "replicas_placed", static_cast<double>(fs.replicas_placed), "count");
  report.add("federation", "repairs", static_cast<double>(fs.repairs), "count");
  report.add("federation", "repair_failures", static_cast<double>(fs.repair_failures), "count");
  report.add("federation", "fetch_errors", static_cast<double>(fs.fetch_errors), "count");
  report.add("federation", "directory", static_cast<double>(fed.directory_size()), "count");
  report.add("federation", "cross_hood_fetches",
             static_cast<double>(driver.result().cross_hood_fetches), "count");
  report.add("churn", "crashes", static_cast<double>(plan.stats().crashes), "count");
  report.add("churn", "restarts", static_cast<double>(plan.stats().restarts), "count");
  for (const workload::TenantStats& t : driver.result().tenants) {
    report.add(t.name, "workload.issued", static_cast<double>(t.issued_total()), "count");
    report.add(t.name, "workload.ok", static_cast<double>(t.ok_total()), "count");
    report.add(t.name, "workload.failed", static_cast<double>(t.failed), "count");
  }
  workload::emit_tail_series(report, driver.result(), "workload.fed_");
  bench::emit(report);

  // The cost pyramid as measured: each tier's p50 with the fetch count it
  // rests on. A tier that served nothing has no p50 to rank.
  using federation::FetchPath;
  const auto tier = [&fs](FetchPath p) -> const obs::LogHistogram& {
    return fs.latency[static_cast<std::size_t>(p)];
  };
  const auto p50_ms = [&](FetchPath p) {
    return static_cast<double>(tier(p).quantile(50.0)) * 1e-6;
  };
  std::printf("\nshape checks: local p50 < neighborhood p50 <= wide_area p50 (the cost\n");
  std::printf("pyramid), as measured:\n");
  bool measured = true;
  for (const FetchPath p : {FetchPath::local, FetchPath::neighborhood, FetchPath::wide_area}) {
    std::printf("  %-13s p50 %9.1f ms over %llu fetches\n", federation::to_string(p), p50_ms(p),
                static_cast<unsigned long long>(tier(p).count()));
    measured = measured && tier(p).count() > 0;
  }
  const bool holds = p50_ms(FetchPath::local) < p50_ms(FetchPath::neighborhood) &&
                     p50_ms(FetchPath::neighborhood) <= p50_ms(FetchPath::wide_area);
  std::printf("  the pyramid %s\n", !measured ? "is not measured (a tier served no fetch)"
                                   : holds     ? "holds"
                                               : "does NOT hold");
  if (tier(FetchPath::cloud).count() == 0) {
    std::printf("  cloud tier: not measured (0 fetches)\n");
  } else {
    std::printf("  cloud tier: p50 %.1f ms over %llu fetches\n", p50_ms(FetchPath::cloud),
                static_cast<unsigned long long>(tier(FetchPath::cloud).count()));
  }
  std::printf("zero unhealable entries after the final repair sweep.\n");
}

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  c4h::run(c4h::bench::parse_args(argc, argv));
  return 0;
}
