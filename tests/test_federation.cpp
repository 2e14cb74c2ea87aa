// City-scale federation (DESIGN.md §12): the leaf/spine City world,
// per-home metadata isolation, geo-aware replica placement and selection,
// the four fetch cost tiers, access-link contention, churn repair,
// ownership guards, and same-seed determinism. The Neighborhood and
// Federation suites run the one-street cases (two homes, one neighborhood)
// on a one-neighborhood City.
#include <gtest/gtest.h>

#include "src/federation/geo_federation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::federation {
namespace {

using sim::Task;
using vstore::City;
using vstore::HomeCloud;
using vstore::HomeCloudConfig;
using vstore::Neighborhood;
using vstore::ObjectMeta;

constexpr int kHoods = 3;
constexpr int kHomesPerHood = 2;

// `neighborhoods` (default 3) × 2 homes × 3 nodes, geo-spread spine
// latencies (1/4/7 ms), replication degree 2.
struct CityRig {
  City city{{.seed = 7, .spines = 2}};
  std::vector<std::unique_ptr<Neighborhood>> hoods;
  std::vector<std::unique_ptr<HomeCloud>> homes;  // home h*2+i = hood h, slot i
  std::unique_ptr<GeoFederation> fed;

  explicit CityRig(std::uint64_t seed = 7, int neighborhoods = kHoods)
      : city{{.seed = seed, .spines = 2}} {
    // Names are built with append(): GCC 12 reports a false -Wrestrict on
    // "literal" + std::string.
    for (int h = 0; h < neighborhoods; ++h) {
      vstore::NeighborhoodConfig nc;
      nc.name = std::string("hood-").append(std::to_string(h));
      nc.spine_latency = milliseconds(1 + 3 * h);
      hoods.push_back(std::make_unique<Neighborhood>(city, nc));
      for (int i = 0; i < kHomesPerHood; ++i) {
        HomeCloudConfig cfg = home_cfg(
            std::string("h").append(std::to_string(h)).append("-").append(std::to_string(i)),
            seed + static_cast<std::uint64_t>(h * kHomesPerHood + i));
        homes.push_back(std::make_unique<HomeCloud>(*hoods[static_cast<std::size_t>(h)], cfg));
      }
    }
    for (auto& hc : homes) hc->bootstrap();
    fed = std::make_unique<GeoFederation>(city, GeoConfig{.replication = 2});
  }

  static HomeCloudConfig home_cfg(const std::string& name, std::uint64_t seed) {
    HomeCloudConfig cfg;
    cfg.home_name = name;
    cfg.netbooks = 2;
    cfg.start_monitors = false;
    cfg.wan_rate_jitter = 0.0;
    cfg.wan_latency_jitter = 0.0;
    cfg.seed = seed;
    return cfg;
  }

  HomeCloud& home(int hood, int slot) {
    return *homes[static_cast<std::size_t>(hood * kHomesPerHood + slot)];
  }

  Task<> store_in(HomeCloud& hc, const std::string& name, Bytes size, bool to_cloud = false) {
    ObjectMeta m;
    m.name = name;
    m.type = "jpg";
    m.size = size;
    (void)co_await hc.node(0).create_object(m);
    vstore::StoreOptions opts;
    if (to_cloud) opts.policy.fallback = vstore::StoreTarget::remote_cloud;
    auto s = co_await hc.node(0).store_object(name, opts);
    EXPECT_TRUE(s.ok());
  }

  void offline_home(HomeCloud& hc, bool online) {
    for (std::size_t i = 0; i < hc.node_count(); ++i) hc.node(i).host().set_online(online);
  }
};

TEST(CityWorld, SharedClockNetworkAndCloud) {
  CityRig rig;
  EXPECT_EQ(rig.homes.size(), static_cast<std::size_t>(kHoods * kHomesPerHood));
  for (auto& hood : rig.hoods) {
    EXPECT_EQ(hood->homes().size(), static_cast<std::size_t>(kHomesPerHood));
  }
  for (auto& hc : rig.homes) {
    EXPECT_EQ(hc->node_count(), 3u);
    EXPECT_EQ(&hc->sim(), &rig.city.sim());
    EXPECT_EQ(&hc->network(), &rig.city.network());
    EXPECT_EQ(&hc->s3(), &rig.city.s3(hc->config().transport));
  }
  // all_homes interleaves neighborhoods: h0-0, h1-0, h2-0, h0-1, ...
  const std::vector<HomeCloud*> all = rig.city.all_homes();
  ASSERT_EQ(all.size(), rig.homes.size());
  EXPECT_EQ(all[0]->config().home_name, "h0-0");
  EXPECT_EQ(all[1]->config().home_name, "h1-0");
  EXPECT_EQ(all[2]->config().home_name, "h2-0");
  EXPECT_EQ(all[3]->config().home_name, "h0-1");
}

TEST(CityWorld, HomesHaveIsolatedMetadata) {
  CityRig rig;
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "private/tax.pdf", 1_MB);
    // The neighbour's DHT knows nothing about another home's objects.
    auto theirs = co_await r.home(0, 1).node(0).fetch_object("private/tax.pdf");
    EXPECT_FALSE(theirs.ok());
    EXPECT_EQ(theirs.code(), Errc::not_found);
    // The owner's other device reads it fine.
    auto mine = co_await r.home(0, 0).node(1).fetch_object("private/tax.pdf");
    EXPECT_TRUE(mine.ok());
  }(rig));
}

TEST(CityWorld, SpineLatencyIsGeoDistance) {
  CityRig rig;
  // Routed leaf→spine→leaf: latency(a,b) = spine_latency(a)+spine_latency(b).
  const Duration d01 = rig.city.site_latency(0, 1);
  const Duration d02 = rig.city.site_latency(0, 2);
  const Duration d12 = rig.city.site_latency(1, 2);
  EXPECT_EQ(rig.city.site_latency(1, 0), d01);  // symmetric
  EXPECT_LT(d01, d02);
  EXPECT_LT(d02, d12);
  EXPECT_EQ(rig.city.site_latency(0, 0), Duration::zero());
}

TEST(Neighborhood, HomesShareOneClockAndNetwork) {
  CityRig rig{7, 1};
  HomeCloud& alpha = rig.home(0, 0);
  HomeCloud& beta = rig.home(0, 1);
  EXPECT_EQ(&alpha.sim(), &beta.sim());
  EXPECT_EQ(&alpha.network(), &beta.network());
  EXPECT_EQ(&alpha.s3(), &beta.s3());
  EXPECT_EQ(rig.hoods[0]->homes().size(), 2u);
}

TEST(Neighborhood, ManyHomesBootstrapCleanly) {
  City city;
  Neighborhood hood{city, {.name = "street"}};
  std::vector<std::unique_ptr<HomeCloud>> homes;
  for (int i = 0; i < 4; ++i) {
    homes.push_back(std::make_unique<HomeCloud>(
        hood, CityRig::home_cfg("home-" + std::to_string(i), 7 + static_cast<std::uint64_t>(i))));
  }
  for (auto& h : homes) h->bootstrap();
  EXPECT_EQ(hood.homes().size(), 4u);
  for (auto& h : homes) {
    EXPECT_EQ(h->node_count(), 3u);
    EXPECT_EQ(&h->sim(), &city.sim());
  }
}

TEST(Federation, PublishThenCrossHomeFetch) {
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    HomeCloud& alpha = r.home(0, 0);
    HomeCloud& beta = r.home(0, 1);
    co_await r.store_in(alpha, "shared/clip.jpg", 2_MB);
    auto pub = co_await r.fed->publish(alpha, alpha.node(0), "shared/clip.jpg");
    EXPECT_TRUE(pub.ok());
    EXPECT_EQ(r.fed->directory_size(), 1u);

    auto got = co_await r.fed->fetch(beta, beta.node(1), "shared/clip.jpg");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) co_return;
    EXPECT_EQ(got->size, 2_MB);
    EXPECT_EQ(got->source_home, "h0-0");
    EXPECT_EQ(got->path, FetchPath::neighborhood);
    // Crossed two access networks: seconds, not LAN-milliseconds.
    EXPECT_GT(to_seconds(got->transfer), 1.0);
    EXPECT_GT(got->directory_lookup, Duration::zero());
  }(rig));
  EXPECT_EQ(rig.fed->stats().fetches[static_cast<std::size_t>(FetchPath::neighborhood)], 1u);
}

TEST(Federation, FetchOwnHomeUsesLocalPath) {
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    HomeCloud& alpha = r.home(0, 0);
    co_await r.store_in(alpha, "shared/own.jpg", 1_MB);
    (void)co_await r.fed->publish(alpha, alpha.node(0), "shared/own.jpg");
    auto got = co_await r.fed->fetch(alpha, alpha.node(1), "shared/own.jpg");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) co_return;
    EXPECT_EQ(got->path, FetchPath::local);
    EXPECT_LT(to_seconds(got->transfer), 1.0);  // stayed on the LAN
  }(rig));
}

TEST(Federation, CloudResidentObjectServedFromS3) {
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    HomeCloud& alpha = r.home(0, 0);
    co_await r.store_in(alpha, "shared/incloud.jpg", 2_MB, /*to_cloud=*/true);
    (void)co_await r.fed->publish(alpha, alpha.node(0), "shared/incloud.jpg");
    auto got = co_await r.fed->fetch(r.home(0, 1), r.home(0, 1).node(0), "shared/incloud.jpg");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) co_return;
    EXPECT_EQ(got->path, FetchPath::cloud);
    EXPECT_TRUE(got->source_home.empty());
  }(rig));
  EXPECT_EQ(rig.fed->stats().fetches[static_cast<std::size_t>(FetchPath::cloud)], 1u);
  EXPECT_EQ(rig.fed->stats().fetches[static_cast<std::size_t>(FetchPath::neighborhood)], 0u);
}

TEST(Federation, UnpublishedObjectNotFound) {
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "hidden.jpg", 1_MB);
    auto got = co_await r.fed->fetch(r.home(0, 1), r.home(0, 1).node(0), "hidden.jpg");
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code(), Errc::not_found);
  }(rig));
}

TEST(Federation, WithdrawRemovesAndGuardsOwnership) {
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    HomeCloud& alpha = r.home(0, 0);
    HomeCloud& beta = r.home(0, 1);
    co_await r.store_in(alpha, "shared/tmp.jpg", 1_MB);
    (void)co_await r.fed->publish(alpha, alpha.node(0), "shared/tmp.jpg");

    // Beta may not withdraw alpha's share.
    auto steal = co_await r.fed->withdraw(beta, beta.node(0), "shared/tmp.jpg");
    EXPECT_FALSE(steal.ok());
    EXPECT_EQ(steal.code(), Errc::permission_denied);

    auto mine = co_await r.fed->withdraw(alpha, alpha.node(0), "shared/tmp.jpg");
    EXPECT_TRUE(mine.ok());
    EXPECT_EQ(r.fed->directory_size(), 0u);
    auto gone = co_await r.fed->fetch(beta, beta.node(0), "shared/tmp.jpg");
    EXPECT_FALSE(gone.ok());
    EXPECT_EQ(gone.code(), Errc::not_found);
  }(rig));
}

TEST(Federation, SourceNodeOfflineIsUnavailable) {
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    HomeCloud& alpha = r.home(0, 0);
    co_await r.store_in(alpha, "shared/fragile.jpg", 1_MB);
    (void)co_await r.fed->publish(alpha, alpha.node(0), "shared/fragile.jpg");
    // One neighborhood: the owner's copy is the only one. Its node goes dark.
    for (std::size_t n = 0; n < alpha.node_count(); ++n) {
      if (alpha.node(n).fs().contains("shared/fragile.jpg")) alpha.node(n).host().set_online(false);
    }
    EXPECT_EQ(r.fed->live_replicas("shared/fragile.jpg"), 0u);
    auto got = co_await r.fed->fetch(r.home(0, 1), r.home(0, 1).node(0), "shared/fragile.jpg");
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code(), Errc::unavailable);
  }(rig));
}

TEST(GeoFederation, PublishPlacesReplicasInDistinctNeighborhoods) {
  CityRig rig;
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "city/a.jpg", 1_MB);
    auto pub = co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "city/a.jpg");
    EXPECT_TRUE(pub.ok());
  }(rig));
  EXPECT_EQ(rig.fed->directory_size(), 1u);
  EXPECT_EQ(rig.fed->stats().published, 1u);
  // Degree 2: the owner's copy plus one placed replica.
  EXPECT_EQ(rig.fed->stats().replicas_placed, 1u);
  EXPECT_EQ(rig.fed->live_replicas("city/a.jpg"), 2u);
  // Nearest distinct neighborhood to hood 0 is hood 1: some node there now
  // holds the bytes in its voluntary bin.
  bool hood1_has_copy = false;
  for (int i = 0; i < kHomesPerHood; ++i) {
    HomeCloud& hc = rig.home(1, i);
    for (std::size_t n = 0; n < hc.node_count(); ++n) {
      if (hc.node(n).fs().contains("city/a.jpg")) hood1_has_copy = true;
    }
  }
  EXPECT_TRUE(hood1_has_copy);
}

TEST(GeoFederation, FetchClassifiesAllFourPaths) {
  CityRig rig;
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "city/p.jpg", 1_MB);
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "city/p.jpg");
    co_await r.store_in(r.home(0, 0), "city/s3.jpg", 1_MB, /*to_cloud=*/true);
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "city/s3.jpg");

    // Own home: local.
    auto local = co_await r.fed->fetch(r.home(0, 0), r.home(0, 0).node(1), "city/p.jpg");
    EXPECT_TRUE(local.ok());
    if (!local.ok()) co_return;  // ASSERT_* returns void — illegal in a coroutine
    EXPECT_EQ(local->path, FetchPath::local);
    EXPECT_LT(to_seconds(local->transfer), 1.0);  // stayed on the LAN

    // Other home, same neighborhood: neighborhood tier.
    auto nb = co_await r.fed->fetch(r.home(0, 1), r.home(0, 1).node(0), "city/p.jpg");
    EXPECT_TRUE(nb.ok());
    if (!nb.ok()) co_return;
    EXPECT_EQ(nb->path, FetchPath::neighborhood);
    EXPECT_EQ(nb->source_hood, 0u);
    EXPECT_EQ(nb->source_home, "h0-0");
    EXPECT_GT(nb->directory_lookup, Duration::zero());
    // Crossed two access networks: seconds, not LAN-milliseconds.
    EXPECT_GT(to_seconds(nb->transfer), 1.0);

    // Far neighborhood (no replica landed there): wide-area, served by the
    // geographically nearest live copy — hood 0 (1 ms) beats hood 1 (4 ms)
    // from hood 2's vantage point.
    auto wa = co_await r.fed->fetch(r.home(2, 0), r.home(2, 0).node(0), "city/p.jpg");
    EXPECT_TRUE(wa.ok());
    if (!wa.ok()) co_return;
    EXPECT_EQ(wa->path, FetchPath::wide_area);
    EXPECT_EQ(wa->source_hood, 0u);

    // Cloud-resident object: served from shared S3.
    auto cl = co_await r.fed->fetch(r.home(1, 0), r.home(1, 0).node(0), "city/s3.jpg");
    EXPECT_TRUE(cl.ok());
    if (!cl.ok()) co_return;
    EXPECT_EQ(cl->path, FetchPath::cloud);
  }(rig));
  const GeoStats& s = rig.fed->stats();
  EXPECT_EQ(s.fetches[static_cast<std::size_t>(FetchPath::local)], 1u);
  EXPECT_EQ(s.fetches[static_cast<std::size_t>(FetchPath::neighborhood)], 1u);
  EXPECT_EQ(s.fetches[static_cast<std::size_t>(FetchPath::wide_area)], 1u);
  EXPECT_EQ(s.fetches[static_cast<std::size_t>(FetchPath::cloud)], 1u);
  EXPECT_EQ(s.fetch_errors, 0u);
}

TEST(GeoFederation, CrossHomeFetchesContendOnTheSourceUplink) {
  // Two concurrent neighborhood-tier fetches from the same source home must
  // share its single uplink. Objects are large enough that most bytes move
  // in the post-slow-start phase, where the two flows genuinely contend.
  CityRig rig{7, 1};
  double solo = 0, shared_a = 0, shared_b = 0;
  rig.city.run([&](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "street/a.bin", 16_MB);
    co_await r.store_in(r.home(0, 0), "street/b.bin", 16_MB);
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "street/a.bin");
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "street/b.bin");

    auto g0 = co_await r.fed->fetch(r.home(0, 1), r.home(0, 1).node(0), "street/a.bin");
    if (g0.ok()) solo = to_seconds(g0->transfer);

    std::vector<Task<>> both;
    both.push_back([](CityRig& rr, double& out) -> Task<> {
      auto g = co_await rr.fed->fetch(rr.home(0, 1), rr.home(0, 1).node(0), "street/a.bin");
      if (g.ok()) out = to_seconds(g->transfer);
    }(r, shared_a));
    both.push_back([](CityRig& rr, double& out) -> Task<> {
      auto g = co_await rr.fed->fetch(rr.home(0, 1), rr.home(0, 1).node(1), "street/b.bin");
      if (g.ok()) out = to_seconds(g->transfer);
    }(r, shared_b));
    co_await sim::when_all(r.city.sim(), std::move(both));
  }(rig));
  EXPECT_EQ(rig.fed->stats().fetches[static_cast<std::size_t>(FetchPath::neighborhood)], 3u);
  ASSERT_GT(solo, 0.0);
  EXPECT_GT(shared_a, solo * 1.4);
  EXPECT_GT(shared_b, solo * 1.4);
}

TEST(GeoFederation, OneNeighborhoodCityKeepsOnlyTheOwnersCopy) {
  // Replication degree 2 with no second neighborhood to hold a copy:
  // publish places nothing, repair has nowhere to heal to, and the owner's
  // copy serves the neighbour.
  CityRig rig{7, 1};
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "street/clip.jpg", 2_MB);
    auto pub = co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "street/clip.jpg");
    EXPECT_TRUE(pub.ok());
    EXPECT_EQ(r.fed->live_replicas("street/clip.jpg"), 1u);
    const std::size_t healed = co_await r.fed->repair_scan();
    EXPECT_EQ(healed, 0u);

    auto got = co_await r.fed->fetch(r.home(0, 1), r.home(0, 1).node(1), "street/clip.jpg");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) co_return;
    EXPECT_EQ(got->path, FetchPath::neighborhood);
    EXPECT_EQ(got->source_home, "h0-0");
    EXPECT_EQ(got->size, 2_MB);
  }(rig));
  EXPECT_EQ(rig.fed->partition_count(), 1u);
  EXPECT_EQ(rig.fed->stats().replicas_placed, 0u);
  EXPECT_EQ(rig.fed->stats().repair_failures, 0u);
}

TEST(GeoFederation, RepairRestoresReplicationDegree) {
  CityRig rig;
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "city/heal.jpg", 512_KB);
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "city/heal.jpg");
    EXPECT_EQ(r.fed->live_replicas("city/heal.jpg"), 2u);

    // The owner's whole home churns out: one live copy left (hood 1).
    r.offline_home(r.home(0, 0), false);
    r.offline_home(r.home(0, 1), false);
    EXPECT_EQ(r.fed->live_replicas("city/heal.jpg"), 1u);

    const std::size_t healed = co_await r.fed->repair_scan();
    EXPECT_EQ(healed, 1u);
    EXPECT_EQ(r.fed->live_replicas("city/heal.jpg"), 2u);

    // The new copy went to a neighborhood not already hosting one (hood 2),
    // and the object still fetches from there.
    auto got = co_await r.fed->fetch(r.home(2, 0), r.home(2, 0).node(0), "city/heal.jpg");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) co_return;
    EXPECT_EQ(got->size, 512_KB);
  }(rig));
  EXPECT_EQ(rig.fed->stats().repairs, 1u);
  EXPECT_EQ(rig.fed->stats().repair_failures, 0u);
}

TEST(GeoFederation, UnavailableOnlyWhenEveryReplicaIsDead) {
  CityRig rig;
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "city/gone.jpg", 256_KB);
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "city/gone.jpg");

    // Kill every home in hoods 0 and 1 — owner copy and placed replica both.
    for (int i = 0; i < kHomesPerHood; ++i) {
      r.offline_home(r.home(0, i), false);
      r.offline_home(r.home(1, i), false);
    }
    EXPECT_EQ(r.fed->live_replicas("city/gone.jpg"), 0u);
    auto got = co_await r.fed->fetch(r.home(2, 0), r.home(2, 0).node(0), "city/gone.jpg");
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code(), Errc::unavailable);

    // A hosting node returning (its disk survived) revives the copy with no
    // repair needed.
    r.offline_home(r.home(0, 0), true);
    EXPECT_GE(r.fed->live_replicas("city/gone.jpg"), 1u);
    auto back = co_await r.fed->fetch(r.home(2, 0), r.home(2, 0).node(0), "city/gone.jpg");
    EXPECT_TRUE(back.ok());
  }(rig));
}

TEST(GeoFederation, OwnershipGuardsHoldCityWide) {
  CityRig rig;
  rig.city.run([](CityRig& r) -> Task<> {
    co_await r.store_in(r.home(0, 0), "city/own.jpg", 256_KB);
    // Stored but not yet published: invisible to every other home.
    auto hidden = co_await r.fed->fetch(r.home(1, 0), r.home(1, 0).node(0), "city/own.jpg");
    EXPECT_FALSE(hidden.ok());
    EXPECT_EQ(hidden.code(), Errc::not_found);
    (void)co_await r.fed->publish(r.home(0, 0), r.home(0, 0).node(0), "city/own.jpg");

    // Another home storing the same name cannot republish or withdraw it.
    co_await r.store_in(r.home(1, 0), "city/own.jpg", 256_KB);
    auto steal_pub = co_await r.fed->publish(r.home(1, 0), r.home(1, 0).node(0), "city/own.jpg");
    EXPECT_FALSE(steal_pub.ok());
    EXPECT_EQ(steal_pub.code(), Errc::permission_denied);
    auto steal_wd = co_await r.fed->withdraw(r.home(1, 0), r.home(1, 0).node(0), "city/own.jpg");
    EXPECT_FALSE(steal_wd.ok());
    EXPECT_EQ(steal_wd.code(), Errc::permission_denied);

    auto mine = co_await r.fed->withdraw(r.home(0, 0), r.home(0, 0).node(0), "city/own.jpg");
    EXPECT_TRUE(mine.ok());
    EXPECT_EQ(r.fed->directory_size(), 0u);
    auto gone = co_await r.fed->fetch(r.home(2, 0), r.home(2, 0).node(0), "city/own.jpg");
    EXPECT_FALSE(gone.ok());
    EXPECT_EQ(gone.code(), Errc::not_found);
  }(rig));
}

TEST(GeoFederation, SameSeedRunsAreIdentical) {
  auto episode = [](CityRig& rig) {
    rig.city.run([](CityRig& r) -> Task<> {
      for (int i = 0; i < 4; ++i) {
        HomeCloud& owner = r.home(i % kHoods, 0);
        const std::string name = "city/obj-" + std::to_string(i);
        co_await r.store_in(owner, name, 256_KB + static_cast<Bytes>(i) * 64_KB);
        (void)co_await r.fed->publish(owner, owner.node(0), name);
      }
      for (int i = 0; i < 4; ++i) {
        HomeCloud& reader = r.home((i + 1) % kHoods, 1);
        auto got = co_await r.fed->fetch(reader, reader.node(0),
                                         "city/obj-" + std::to_string(i));
        EXPECT_TRUE(got.ok());
      }
      const std::size_t healed = co_await r.fed->repair_scan();
      EXPECT_EQ(healed, 0u);
    }(rig));
  };
  CityRig a{11};
  CityRig b{11};
  episode(a);
  episode(b);
  EXPECT_EQ(a.fed->fingerprint(), b.fed->fingerprint());
  EXPECT_EQ(a.fed->stats().fetches, b.fed->stats().fetches);
  EXPECT_EQ(a.city.sim().now(), b.city.sim().now());
  EXPECT_FALSE(a.fed->fingerprint().empty());

  // Pinned history guard: the constants below were captured from this exact
  // seed-11 episode *before* the simulator-core rewrites (slab event arena,
  // lazy route resolution, one pending flow event, shared max-min solver,
  // per-hub route trees). Run-to-run identity (above) would still pass if
  // the engine changed behavior deterministically; this cross-version pin
  // is what actually proves the fast-path work preserved the simulated
  // history byte for byte. Update the constants only for an intended model
  // change, and say why in the commit.
  EXPECT_EQ(a.city.sim().now().count(), 6277977401LL);
  EXPECT_EQ(a.fed->stats().fetches[0] + a.fed->stats().fetches[1] + a.fed->stats().fetches[2] +
                a.fed->stats().fetches[3],
            4u);
  EXPECT_EQ(a.fed->fingerprint(),
            "0:city/obj-1:327680:1:|1/h1-0/7469f5c6e7|0/h0-0/888acbca86;"
            "1:city/obj-0:262144:0:|0/h0-0/441897ae6d|1/h1-0/67b120f4a2;"
            "1:city/obj-2:393216:2:|2/h2-0/f95bda132c|0/h0-1/14d96c40ee;"
            "1:city/obj-3:458752:0:|0/h0-0/441897ae6d|1/h1-1/221a859c41;");
}

}  // namespace
}  // namespace c4h::federation
