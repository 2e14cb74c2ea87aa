// Tests for src/workload: Zipf popularity against the analytic pmf,
// schedule determinism (the property the whole suite rests on — identical
// specs produce byte-identical schedules), diurnal/flash-crowd rate
// modulation, tenant/op-mix proportions, and the Driver's tenant placement
// and outcome accounting in one home and in a City.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "src/common/rng.hpp"
#include "src/workload/workload.hpp"

namespace c4h::workload {
namespace {

TEST(Zipf, PmfSumsToOne) {
  const ZipfTable z{50, 0.9};
  double sum = 0.0;
  for (std::size_t k = 0; k < 50; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsMonotoneDecreasing) {
  const ZipfTable z{64, 1.1};
  for (std::size_t k = 1; k < 64; ++k) EXPECT_LT(z.pmf(k), z.pmf(k - 1));
}

TEST(Zipf, EmpiricalFrequenciesMatchAnalyticPmf) {
  const std::size_t n = 40;
  const ZipfTable z{n, 0.8};
  Rng rng{1234};
  const int draws = 200000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < draws; ++i) ++counts[z.sample(rng)];
  for (std::size_t k = 0; k < n; ++k) {
    const double emp = static_cast<double>(counts[k]) / draws;
    // Absolute floor for the tail plus a relative band for the head.
    EXPECT_NEAR(emp, z.pmf(k), 0.003 + 0.05 * z.pmf(k)) << "rank " << k;
  }
}

WorkloadSpec two_tenant_spec() {
  WorkloadSpec spec;
  spec.seed = 7;
  spec.duration = seconds(30);

  TenantSpec a;
  a.name = "alpha";
  a.principal = {"alpha", vstore::TrustLevel::trusted};
  a.mix = {0.5, 0.3, 0.0, 0.0};
  a.mix.process = 0.15;
  a.mix.fetch_process = 0.05;
  a.service = services::ServiceProfile{};
  a.object_count = 16;
  a.arrival.rate_per_sec = 40.0;
  spec.tenants.push_back(a);

  TenantSpec b;
  b.name = "beta";
  b.principal = {"beta", vstore::TrustLevel::trusted};
  b.mix = {0.2, 0.8, 0.0, 0.0};
  b.object_count = 8;
  b.fetch_from = {"alpha"};
  b.arrival.rate_per_sec = 120.0;
  spec.tenants.push_back(b);

  return spec;
}

TEST(Generate, SameSeedIsByteIdentical) {
  const Schedule s1 = generate(two_tenant_spec());
  const Schedule s2 = generate(two_tenant_spec());
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
  EXPECT_EQ(s1.objects, s2.objects);
  EXPECT_EQ(s1.ops, s2.ops);
}

TEST(Generate, DifferentSeedsDiverge) {
  WorkloadSpec spec = two_tenant_spec();
  const Schedule s1 = generate(spec);
  spec.seed = 8;
  const Schedule s2 = generate(spec);
  EXPECT_NE(s1.fingerprint(), s2.fingerprint());
}

TEST(Generate, OpsAreTimeSortedAndStoresTargetOwnCatalog) {
  const WorkloadSpec spec = two_tenant_spec();
  const Schedule s = generate(spec);
  ASSERT_FALSE(s.ops.empty());
  for (std::size_t i = 1; i < s.ops.size(); ++i) {
    EXPECT_LE(s.ops[i - 1].at, s.ops[i].at);
  }
  for (const ScheduledOp& op : s.ops) {
    ASSERT_LT(op.object, s.objects.size());
    if (op.kind == OpKind::store) {
      EXPECT_EQ(s.objects[op.object].tenant, op.tenant);
    }
  }
}

TEST(Generate, TenantArrivalRatesSetOpProportions) {
  const WorkloadSpec spec = two_tenant_spec();  // rates 40 vs 120 → 1:3
  const Schedule s = generate(spec);
  const double a = static_cast<double>(s.count_tenant(0));
  const double b = static_cast<double>(s.count_tenant(1));
  ASSERT_GT(a, 0.0);
  EXPECT_NEAR(b / a, 3.0, 0.45);
}

TEST(Generate, OpMixProportionsMatchWeights) {
  WorkloadSpec spec = two_tenant_spec();
  spec.tenants[1].arrival.rate_per_sec = 300.0;  // ~9000 beta ops
  const Schedule s = generate(spec);
  std::size_t store = 0, fetch = 0;
  for (const ScheduledOp& op : s.ops) {
    if (op.tenant != 1) continue;
    if (op.kind == OpKind::store) ++store;
    if (op.kind == OpKind::fetch) ++fetch;
  }
  const double total = static_cast<double>(store + fetch);
  EXPECT_NEAR(static_cast<double>(store) / total, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(fetch) / total, 0.8, 0.03);
}

TEST(Generate, FetchableSetSpansOwnAndSharedCatalogs) {
  const WorkloadSpec spec = two_tenant_spec();
  const Schedule s = generate(spec);
  const auto sets = fetchable_sets(spec, s.objects);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].size(), 16u);       // alpha: own only
  EXPECT_EQ(sets[1].size(), 16u + 8u);  // beta: own + alpha
  // Beta's fetches stay inside its fetchable set.
  std::vector<bool> allowed(s.objects.size(), false);
  for (const std::uint32_t i : sets[1]) allowed[i] = true;
  for (const ScheduledOp& op : s.ops) {
    if (op.tenant == 1 && op.kind == OpKind::fetch) {
      EXPECT_TRUE(allowed[op.object]);
    }
  }
}

TEST(Modulation, DiurnalIsPeriodicAndBounded) {
  DiurnalSpec d;
  d.enabled = true;
  d.period = seconds(60);
  d.amplitude = 0.5;
  const RateModulation mod{d, {}};
  for (int i = 0; i < 200; ++i) {
    const TimePoint t = milliseconds(i * 777);
    EXPECT_NEAR(mod.at(t), mod.at(t + d.period), 1e-9);
    EXPECT_GE(mod.at(t), 0.5 - 1e-9);
    EXPECT_LE(mod.at(t), 1.5 + 1e-9);
  }
  EXPECT_NEAR(mod.at(seconds(15)), 1.5, 1e-9);  // peak at period/4
  EXPECT_NEAR(mod.at(seconds(45)), 0.5, 1e-9);  // trough at 3·period/4
}

TEST(Modulation, FlashCrowdMultipliesOnlyInsideWindow) {
  FlashCrowdSpec f;
  f.start = seconds(10);
  f.duration = seconds(5);
  f.multiplier = 8.0;
  const RateModulation mod{{}, {f}};
  EXPECT_NEAR(mod.at(seconds(9)), 1.0, 1e-9);
  EXPECT_NEAR(mod.at(seconds(10)), 8.0, 1e-9);
  EXPECT_NEAR(mod.at(seconds(14)), 8.0, 1e-9);
  EXPECT_NEAR(mod.at(seconds(15)), 1.0, 1e-9);
}

TEST(Generate, DiurnalModulationShapesArrivalDensity) {
  WorkloadSpec spec;
  spec.seed = 11;
  spec.duration = seconds(60);
  spec.diurnal.enabled = true;
  spec.diurnal.period = seconds(60);
  spec.diurnal.amplitude = 0.9;

  TenantSpec t;
  t.name = "t";
  t.principal = {"t", vstore::TrustLevel::trusted};
  t.mix = {1.0, 0.0, 0.0, 0.0};
  t.object_count = 8;
  t.arrival.rate_per_sec = 100.0;
  spec.tenants.push_back(t);

  const Schedule s = generate(spec);
  std::size_t first_half = 0, second_half = 0;  // sin ≥ 0 vs sin ≤ 0
  for (const ScheduledOp& op : s.ops) {
    (op.at < seconds(30) ? first_half : second_half)++;
  }
  ASSERT_GT(second_half, 0u);
  EXPECT_GT(static_cast<double>(first_half) / static_cast<double>(second_half), 1.8);
}

TEST(Generate, FlashCrowdInflatesWindowDensity) {
  WorkloadSpec spec;
  spec.seed = 5;
  spec.duration = seconds(60);
  FlashCrowdSpec f;
  f.start = seconds(30);
  f.duration = seconds(10);
  f.multiplier = 8.0;
  spec.flash_crowds.push_back(f);

  TenantSpec t;
  t.name = "t";
  t.principal = {"t", vstore::TrustLevel::trusted};
  t.mix = {0.0, 1.0, 0.0, 0.0};
  t.object_count = 8;
  t.arrival.rate_per_sec = 20.0;
  spec.tenants.push_back(t);

  const Schedule s = generate(spec);
  std::size_t before = 0, inside = 0;  // [20,30) vs [30,40)
  for (const ScheduledOp& op : s.ops) {
    if (op.at >= seconds(20) && op.at < seconds(30)) ++before;
    if (op.at >= seconds(30) && op.at < seconds(40)) ++inside;
  }
  ASSERT_GT(before, 0u);
  EXPECT_GT(static_cast<double>(inside) / static_cast<double>(before), 3.0);
}

TEST(Generate, FlashCrowdLeavesTheScheduleBeforeItsWindowUnchanged) {
  // A window raises the rate only from its start on, so every op before it
  // is the same as in the schedule without the window. (After the window the
  // two differ: its extra arrivals advance each tenant's Rng streams.)
  FlashCrowdSpec f;
  f.start = seconds(12);
  f.duration = seconds(6);
  f.multiplier = 8.0;
  const auto before_window = [&](const Schedule& s) {
    std::vector<ScheduledOp> ops;
    for (const ScheduledOp& op : s.ops) {
      if (op.at < f.start) ops.push_back(op);
    }
    return ops;
  };
  for (const std::uint64_t seed : {1u, 42u, 97u}) {
    WorkloadSpec steady = two_tenant_spec();
    steady.seed = seed;
    steady.diurnal.enabled = true;
    steady.diurnal.period = seconds(20);
    steady.diurnal.amplitude = 0.5;
    WorkloadSpec flash = steady;
    flash.flash_crowds.push_back(f);

    const Schedule a = generate(steady);
    const Schedule b = generate(flash);
    EXPECT_EQ(a.objects, b.objects) << "seed " << seed;
    const std::vector<ScheduledOp> ops = before_window(a);
    ASSERT_FALSE(ops.empty()) << "seed " << seed;
    EXPECT_EQ(ops, before_window(b)) << "seed " << seed;
  }
}

TEST(FromTrace, MapsFilesToTenantsAndIsDeterministic) {
  trace::TraceConfig tc;
  tc.clients = 3;
  tc.file_count = 60;
  tc.op_count = 200;
  tc.seed = 21;
  const trace::TraceWorkload w = trace::generate(tc);
  const Schedule s1 = from_trace(w, 3, 5.0, 9);
  const Schedule s2 = from_trace(w, 3, 5.0, 9);
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
  ASSERT_EQ(s1.objects.size(), w.files.size());
  for (std::size_t i = 0; i < s1.objects.size(); ++i) {
    EXPECT_EQ(s1.objects[i].tenant, static_cast<std::uint32_t>(i % 3));
    EXPECT_EQ(s1.objects[i].size, w.files[i].size);
    EXPECT_EQ(s1.objects[i].is_private, w.files[i].is_private());
  }
  EXPECT_EQ(s1.ops.size(), w.ops.size());
  for (std::size_t i = 1; i < s1.ops.size(); ++i) {
    EXPECT_GE(s1.ops[i].at, s1.ops[i - 1].at);  // monotone pacing
  }
}


// --- Driver ------------------------------------------------------------------

// Names are built with append(): GCC 12 reports a false -Wrestrict on
// "literal" + std::string.
std::string numbered(const char* prefix, std::size_t i) {
  return std::string(prefix).append(std::to_string(i));
}

/// Store/fetch tenants t0..t(n-1) whose catalogs anyone may read; tenant t
/// also fetches tenant (t+1 mod n)'s catalog.
WorkloadSpec store_fetch_spec(std::size_t tenants, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.duration = seconds(8);
  for (std::size_t t = 0; t < tenants; ++t) {
    TenantSpec ts;
    ts.name = numbered("t", t);
    ts.principal = {ts.name, vstore::TrustLevel::trusted};
    ts.acl.allow("*", {vstore::Right::read});
    ts.mix = {0.3, 0.7, 0.0, 0.0};
    ts.object_count = 5;
    ts.size = {64_KB, 256_KB};
    if (tenants > 1) ts.fetch_from = {numbered("t", (t + 1) % tenants)};
    ts.arrival.rate_per_sec = 3.0;
    spec.tenants.push_back(ts);
  }
  return spec;
}

vstore::HomeCloudConfig small_home(std::string name, int nodes, std::uint64_t seed) {
  vstore::HomeCloudConfig cfg;
  cfg.home_name = std::move(name);
  cfg.netbooks = nodes - 1;
  cfg.with_desktop = true;
  cfg.start_monitors = false;
  cfg.seed = seed;
  return cfg;
}

/// Samples in `tenant`'s `<prefix><kind>` latency histogram (0 when it was
/// never recorded).
std::uint64_t latency_count(const obs::Registry& registry, const std::string& prefix,
                            OpKind kind, const std::string& tenant) {
  const obs::Snapshot snap = registry.snapshot();
  const auto it =
      snap.histograms.find(prefix + to_string(kind) + ".latency_ns{tenant=" + tenant + "}");
  return it == snap.histograms.end() ? 0 : it->second.count();
}

constexpr OpKind kAllKinds[] = {OpKind::store, OpKind::fetch, OpKind::process,
                                OpKind::fetch_process};

TEST(Driver, OneHomeAccountsForEveryOp) {
  const WorkloadSpec spec = store_fetch_spec(3, 4);
  vstore::HomeCloud hc{small_home("home", 5, 4)};
  hc.bootstrap();
  Driver driver{hc.world(), spec};
  const Schedule schedule = generate(spec);
  ASSERT_GT(schedule.count(OpKind::store), 0u);
  hc.run(driver.drive(schedule));
  const DriveResult& r = driver.result();

  // Node i serves tenant (i mod T).
  for (std::size_t i = 0; i < hc.node_count(); ++i) {
    EXPECT_EQ(hc.node(i).principal().user,
              spec.tenants[i % spec.tenants.size()].principal.user)
        << "node " << i;
  }
  EXPECT_EQ(r.issued(), schedule.ops.size());
  for (const TenantStats& ts : r.tenants) {
    EXPECT_EQ(ts.issued_total(), ts.ok_total() + ts.failed + ts.denied) << ts.name;
    for (const OpKind k : kAllKinds) {
      EXPECT_EQ(latency_count(hc.world().metrics(), "c4h.workload.", k, ts.name),
                ts.ok[static_cast<std::size_t>(k)])
          << ts.name << " " << to_string(k);
    }
  }
  for (const ObjectSpec& o : schedule.objects) {
    const auto it = r.acked.find(o.name);
    ASSERT_NE(it, r.acked.end()) << o.name;
    EXPECT_EQ(it->second, o.size) << o.name;
  }
  EXPECT_EQ(r.cross_hood_fetches, 0u);
}

TEST(Driver, SkippedOpIsNeverCountedAsIssued) {
  // A process-weighted tenant without a service: its process ops are
  // skipped, and a skipped op must not also count as issued.
  WorkloadSpec spec = store_fetch_spec(1, 6);
  spec.tenants[0].mix = {0.5, 0.0, 0.5, 0.0};
  vstore::HomeCloud hc{small_home("home", 3, 6)};
  hc.bootstrap();
  Driver driver{hc.world(), spec};
  const Schedule schedule = generate(spec);
  ASSERT_GT(schedule.count(OpKind::process), 0u);
  hc.run(driver.drive(schedule));

  const TenantStats& ts = driver.result().tenants[0];
  EXPECT_EQ(ts.skipped, schedule.count(OpKind::process));
  EXPECT_EQ(ts.issued[static_cast<std::size_t>(OpKind::process)], 0u);
  EXPECT_EQ(ts.issued_total(), ts.ok_total() + ts.failed + ts.denied);
  EXPECT_EQ(ts.issued_total() + ts.skipped, schedule.ops.size());
}

/// A City of `neighborhoods` neighborhoods with one three-node home each.
struct SmallCity {
  vstore::City city{{.seed = 13, .spines = 2}};
  std::vector<std::unique_ptr<vstore::Neighborhood>> hoods;
  std::vector<std::unique_ptr<vstore::HomeCloud>> homes;
  std::unique_ptr<federation::GeoFederation> fed;

  explicit SmallCity(std::size_t neighborhoods) {
    for (std::size_t h = 0; h < neighborhoods; ++h) {
      vstore::NeighborhoodConfig nc;
      nc.name = numbered("hood-", h);
      nc.spine_latency = milliseconds(1 + 3 * static_cast<int>(h));
      hoods.push_back(std::make_unique<vstore::Neighborhood>(city, nc));
      homes.push_back(std::make_unique<vstore::HomeCloud>(
          *hoods.back(), small_home(numbered("h", h), 3, 13 + h)));
    }
    for (auto& hc : homes) hc->bootstrap();
    fed = std::make_unique<federation::GeoFederation>(city,
                                                      federation::GeoConfig{.replication = 2});
  }
};

TEST(Driver, CityPublishesStoresAndFetchesThroughTheFederation) {
  SmallCity c{2};
  const WorkloadSpec spec = store_fetch_spec(2, 8);  // t0 and t1 fetch each other's catalog
  Driver driver{c.city, spec, c.fed.get()};
  const Schedule schedule = generate(spec);
  ASSERT_GT(schedule.count(OpKind::store), 0u);
  c.city.run(driver.drive(schedule));
  const DriveResult& r = driver.result();

  // Fault-free: every op succeeds, so the schedule says which fetches were
  // of the other tenant's objects (the other tenant lives in the other
  // neighborhood).
  ASSERT_EQ(r.ok(), schedule.ops.size());
  std::uint64_t others = 0;
  for (const ScheduledOp& op : schedule.ops) {
    others += op.kind == OpKind::fetch && schedule.objects[op.object].tenant != op.tenant;
  }
  EXPECT_GT(others, 0u);
  EXPECT_EQ(r.cross_hood_fetches, others);

  std::uint64_t ok_fetches = 0;
  for (const TenantStats& ts : r.tenants) {
    ok_fetches += ts.ok[static_cast<std::size_t>(OpKind::fetch)];
  }
  const auto& by_path = c.fed->stats().fetches;
  EXPECT_EQ(by_path[0] + by_path[1] + by_path[2] + by_path[3], ok_fetches);

  EXPECT_EQ(r.acked.size(), schedule.objects.size());
  for (const auto& [name, size] : r.acked) {
    EXPECT_GT(c.fed->live_replicas(name), 0u) << name;
  }

  // Latencies land in the City registry under the fed_ names, and in no
  // home's registry.
  for (const TenantStats& ts : r.tenants) {
    for (const OpKind k : kAllKinds) {
      EXPECT_EQ(latency_count(c.city.metrics(), "c4h.workload.fed_", k, ts.name),
                ts.ok[static_cast<std::size_t>(k)])
          << ts.name << " " << to_string(k);
    }
  }
  for (const auto& hc : c.homes) {
    const obs::Snapshot snap = hc->metrics().snapshot();
    for (const auto& [name, hist] : snap.histograms) {
      EXPECT_NE(name.rfind("c4h.workload.", 0), 0u) << hc->config().home_name << ": " << name;
    }
  }
}

TEST(Driver, CityWithMoreTenantsThanHomesGivesEachNodeOneTenant) {
  SmallCity c{2};
  // Five tenants in two three-node homes: t0, t2, t4 share home 0, and
  // t1, t3 share home 1. Catalogs are private to their owners, so a
  // re-store issued from another tenant's node would be denied.
  WorkloadSpec spec = store_fetch_spec(5, 9);
  for (TenantSpec& ts : spec.tenants) {
    ts.acl = vstore::Acl::owner_only();
    ts.fetch_from.clear();
    ts.mix = {0.7, 0.3, 0.0, 0.0};
  }
  Driver driver{c.city, spec, c.fed.get()};
  const Schedule schedule = generate(spec);
  c.city.run(driver.drive(schedule));
  const DriveResult& r = driver.result();

  std::vector<std::size_t> nodes_of(spec.tenants.size(), 0);
  for (std::size_t h = 0; h < c.homes.size(); ++h) {
    for (std::size_t i = 0; i < c.homes[h]->node_count(); ++i) {
      const std::string& user = c.homes[h]->node(i).principal().user;
      std::size_t served = 0;
      for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
        if (spec.tenants[t].principal.user != user) continue;
        ++served;
        ++nodes_of[t];
        EXPECT_EQ(t % c.homes.size(), h) << user << " serves outside its home";
      }
      EXPECT_EQ(served, 1u) << "home " << h << " node " << i;
    }
  }
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    EXPECT_GE(nodes_of[t], 1u) << spec.tenants[t].name;
  }

  EXPECT_EQ(r.issued(), schedule.ops.size());
  for (const TenantStats& ts : r.tenants) {
    EXPECT_GT(ts.ok[static_cast<std::size_t>(OpKind::store)], 0u) << ts.name;
    EXPECT_EQ(ts.denied, 0u) << ts.name;
    EXPECT_EQ(ts.issued_total(), ts.ok_total() + ts.failed + ts.denied) << ts.name;
  }
}

}  // namespace
}  // namespace c4h::workload
