// The benchmark's three workloads and the deployments they run on. Each
// workload's schedule is workload::generate() of the spec built here, so the
// seed passed on the command line fixes every input.
#include <cstdio>

#include "perfbench/perfbench.hpp"

namespace c4h::perfbench {

namespace {

using workload::TenantSpec;
using workload::WorkloadSpec;

/// Light per-request work for the flash crowd's fetch+process share (a
/// preview of a fetched photo or clip).
services::ServiceProfile preview_profile() {
  services::ServiceProfile p;
  p.name = "preview";
  p.id = 31;
  p.fixed_gigacycles = 0.05;
  p.gigacycles_per_mib = 0.1;
  p.output_ratio = 0.02;
  p.working_set_base = 16_MB;
  return p;
}

/// The IoT dashboard's roll-up over sensor readings.
services::ServiceProfile aggregate_profile() {
  services::ServiceProfile p;
  p.name = "aggregate";
  p.id = 21;
  p.fixed_gigacycles = 0.02;
  p.gigacycles_per_mib = 0.5;
  p.output_ratio = 0.05;
  p.working_set_base = 8_MB;
  return p;
}

/// Per-home indexing of a household's own photos (city_fetch).
services::ServiceProfile index_profile() {
  services::ServiceProfile p;
  p.name = "index";
  p.id = 41;
  p.fixed_gigacycles = 0.03;
  p.gigacycles_per_mib = 0.4;
  p.output_ratio = 0.01;
  p.working_set_base = 8_MB;
  return p;
}

// flash_fetch: one 6-node home. A publisher keeps adding 2–8 MB objects; a
// crowd fetches the publisher's catalog open-loop with Zipf(1.1) popularity
// and an 8× flash window that takes the home past capacity until the backlog
// drains. A fifth of the crowd's requests ask for a processed preview.
WorkloadDef flash_fetch(std::uint64_t seed, bool small) {
  WorkloadDef w;
  w.nodes_per_home = 6;
  w.stores_add_new = true;
  w.services = {preview_profile()};
  w.rounds = small ? 2 : 256;

  WorkloadSpec& spec = w.spec;
  spec.seed = seed;
  spec.duration = small ? seconds(30) : seconds(120);
  workload::FlashCrowdSpec f;
  f.start = TimePoint{spec.duration * 2 / 5};
  f.duration = spec.duration / 20;
  f.multiplier = 8.0;
  spec.flash_crowds.push_back(f);

  TenantSpec publisher;
  publisher.name = "publisher";
  publisher.principal = {"publisher", vstore::TrustLevel::trusted};
  publisher.acl.allow("crowd", {vstore::Right::read, vstore::Right::execute});
  publisher.mix = {1.0, 0.0, 0.0, 0.0};
  publisher.object_count = small ? 24 : 400;
  publisher.size = {2_MB, 8_MB};
  publisher.zipf_s = 0.0;
  publisher.arrival.rate_per_sec = 1.0;
  spec.tenants.push_back(publisher);

  TenantSpec crowd;
  crowd.name = "crowd";
  crowd.principal = {"crowd", vstore::TrustLevel::trusted};
  crowd.mix = {0.0, 0.8, 0.0, 0.2};
  crowd.object_count = 8;
  crowd.size = {64_KB, 256_KB};
  crowd.fetch_from = {"publisher"};
  crowd.zipf_s = 1.1;
  crowd.service = w.services[0];
  crowd.arrival.rate_per_sec = 3.0;
  spec.tenants.push_back(crowd);
  return w;
}

// iot_ingest: one 12-node home. Sensors write 4–64 KB readings open-loop
// with Zipf(0.6) overwrites and a diurnal cycle, below capacity; two
// closed-loop dashboard clients fetch the home's archived readings and run
// `aggregate` over them with the learned placement policy. The dashboards
// read the archive, not the readings being overwritten, so no fetch races
// an overwrite of its object.
WorkloadDef iot_ingest(std::uint64_t seed, bool small) {
  WorkloadDef w;
  w.nodes_per_home = 12;
  w.services = {aggregate_profile()};
  w.rounds = small ? 1 : 4;

  WorkloadSpec& spec = w.spec;
  spec.seed = seed;
  spec.duration = small ? seconds(30) : seconds(300);
  spec.diurnal.enabled = true;
  spec.diurnal.period = seconds(120);
  spec.diurnal.amplitude = 0.6;

  TenantSpec sensors;
  sensors.name = "sensors";
  sensors.principal = {"sensors", vstore::TrustLevel::trusted};
  sensors.object_type = "json";
  sensors.mix = {1.0, 0.0, 0.0, 0.0};
  sensors.object_count = small ? 48 : 400;
  sensors.size = {4_KB, 64_KB};
  sensors.zipf_s = 0.6;
  sensors.arrival.rate_per_sec = small ? 12.0 : 40.0;
  spec.tenants.push_back(sensors);

  TenantSpec archive;
  archive.name = "archive";
  archive.principal = {"archive", vstore::TrustLevel::trusted};
  archive.acl.allow("dashboard", {vstore::Right::read, vstore::Right::execute});
  archive.object_type = "json";
  archive.object_count = small ? 48 : 400;
  archive.size = {4_KB, 64_KB};
  spec.tenants.push_back(archive);

  TenantSpec dashboard;
  dashboard.name = "dashboard";
  dashboard.principal = {"dashboard", vstore::TrustLevel::trusted};
  dashboard.mix = {0.0, 0.6, 0.3, 0.1};
  dashboard.object_count = 4;
  dashboard.size = {16_KB, 64_KB};
  dashboard.fetch_from = {"archive"};
  dashboard.decision = vstore::DecisionPolicy::learned;
  dashboard.service = w.services[0];
  dashboard.closed.clients = 2;
  dashboard.closed.mean_think = milliseconds(100);
  spec.tenants.push_back(dashboard);
  return w;
}

// city_fetch: 16 neighborhoods × 2 homes × 6 nodes. In every home one
// sharing tenant fetches two other homes' objects through the GeoFederation
// (80/20 fetch/store, re-stores republish) and one household tenant indexes
// its own photos at home.
WorkloadDef city_fetch(std::uint64_t seed, bool small) {
  WorkloadDef w;
  w.nodes_per_home = 6;
  w.hoods = small ? 4 : 16;
  w.homes_per_hood = 2;
  w.rounds = small ? 1 : 8;
  w.services = {index_profile()};

  WorkloadSpec& spec = w.spec;
  spec.seed = seed;
  spec.duration = small ? seconds(60) : seconds(300);
  const int homes = w.home_count();
  for (int t = 0; t < homes; ++t) {
    TenantSpec ts;
    ts.name = "share" + std::to_string(t);
    ts.principal = {ts.name, vstore::TrustLevel::trusted};
    ts.mix = {0.2, 0.8, 0.0, 0.0};
    ts.object_count = small ? 6 : 20;
    ts.size = {64_KB, 512_KB};
    ts.zipf_s = 0.8;
    // Homes interleave across neighborhoods (City::all_homes), so the next
    // two tenants' homes sit in other neighborhoods.
    ts.fetch_from = {"share" + std::to_string((t + 1) % homes),
                     "share" + std::to_string((t + 2) % homes)};
    ts.arrival.rate_per_sec = 0.4;
    spec.tenants.push_back(ts);
  }
  for (int t = 0; t < homes; ++t) {
    TenantSpec ts;
    ts.name = "house" + std::to_string(t);
    ts.principal = {ts.name, vstore::TrustLevel::trusted};
    ts.mix = {0.0, 0.0, 1.0, 0.0};
    ts.object_count = small ? 4 : 12;
    ts.size = {256_KB, 2_MB};
    ts.zipf_s = 0.8;
    ts.service = w.services[0];
    ts.arrival.rate_per_sec = 0.4;
    spec.tenants.push_back(ts);
  }
  return w;
}

}  // namespace

std::optional<WorkloadDef> make_workload(const std::string& name, std::uint64_t seed,
                                         bool small) {
  if (name == "flash_fetch") return flash_fetch(seed, small);
  if (name == "iot_ingest") return iot_ingest(seed, small);
  if (name == "city_fetch") return city_fetch(seed, small);
  return std::nullopt;
}

Deployment::Deployment(const WorkloadDef& w) {
  const std::uint64_t seed = w.spec.seed;
  vstore::HomeCloudConfig base;
  base.netbooks = w.nodes_per_home - 1;
  base.with_desktop = true;
  base.start_monitors = false;

  if (w.hoods == 0) {
    base.seed = seed;
    owned_homes_.push_back(std::make_unique<vstore::HomeCloud>(base));
    owned_homes_.back()->bootstrap();
    sim_ = &owned_homes_.back()->sim();
    homes_.push_back(owned_homes_.back().get());
    networks_.push_back(&owned_homes_.back()->network());
    return;
  }

  city_ = std::make_unique<vstore::City>(vstore::CityConfig{.seed = seed, .spines = 2});
  for (int h = 0; h < w.hoods; ++h) {
    vstore::NeighborhoodConfig nc;
    nc.seed = seed;
    nc.name = "hood-" + std::to_string(h);
    // Each neighborhood sits farther from the metro core.
    nc.spine_latency = milliseconds(1 + 3 * h);
    hoods_.push_back(std::make_unique<vstore::Neighborhood>(*city_, nc));
    for (int i = 0; i < w.homes_per_hood; ++i) {
      vstore::HomeCloudConfig hc = base;
      hc.seed = seed + static_cast<std::uint64_t>(h * w.homes_per_hood + i);
      char name[32];
      std::snprintf(name, sizeof name, "h%d-%d", h, i);
      hc.home_name = name;
      hc.kv.replication = 2;
      owned_homes_.push_back(std::make_unique<vstore::HomeCloud>(*hoods_.back(), hc));
    }
  }
  for (auto& home : owned_homes_) home->bootstrap();
  fed_ = std::make_unique<federation::GeoFederation>(*city_,
                                                     federation::GeoConfig{.replication = 2});
  sim_ = &city_->sim();
  homes_ = city_->all_homes();
  networks_.push_back(&city_->network());
}

}  // namespace c4h::perfbench
