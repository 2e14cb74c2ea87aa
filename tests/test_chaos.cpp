// Chaos soak: the deterministic fault-injection layer driving a full
// HomeCloud through message loss/duplication/delay, IO errors, bin-full
// faults, node crash/restart cycles, and uplink flaps, while a mixed
// store/fetch/process workload runs against an in-memory reference model.
//
// Invariants (checked per seed):
//   - no acknowledged store is ever lost once the system settles;
//   - a fetch never returns wrong data (transient failure is allowed while
//     faults are active, silent corruption never is);
//   - the replication factor is restored after churn settles;
//   - the run drains: no in-flight network flows, bounded detached
//     coroutines (only the periodic stabilization loops remain);
//   - the same seed reproduces the run byte-for-byte (stats fingerprint).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/federation/geo_federation.hpp"
#include "src/sim/fault.hpp"
#include "src/vstore/home_cloud.hpp"
#include "src/workload/workload.hpp"

namespace c4h::vstore {
namespace {

using sim::Task;

ObjectMeta chaos_meta(const std::string& name, Bytes size) {
  ObjectMeta m;
  m.name = name;
  m.type = "jpg";
  m.size = size;
  return m;
}

services::ServiceProfile thumb_profile() {
  services::ServiceProfile p;
  p.name = "thumbnail";
  p.id = 1;
  p.fixed_gigacycles = 0.05;
  p.gigacycles_per_mib = 0.2;
  p.output_ratio = 0.1;
  return p;
}

// Everything a run produces that a rerun with the same seed must reproduce
// exactly. Deliberately broad: any nondeterminism in the stack shows up as
// a diverging counter somewhere in here.
struct Fingerprint {
  std::uint64_t kv_puts = 0;
  std::uint64_t kv_gets = 0;
  std::uint64_t kv_retries = 0;
  std::uint64_t kv_failures = 0;
  std::uint64_t kv_send_timeouts = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_retransmits = 0;
  std::uint64_t net_flows = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t flaps = 0;
  std::int64_t final_time_ns = 0;
  std::size_t acked = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct ChaosResult {
  std::size_t acked = 0;    // objects whose store was acknowledged
  int lost = 0;             // acked objects unfetchable after settling
  std::string lost_detail;  // which objects, and the error they died with
  int wrong = 0;            // fetches that returned wrong data, ever
  int phantom = 0;          // fetches of never-stored names that "succeeded"
  std::size_t under_replicated = 0;
  std::size_t active_flows = 0;
  std::size_t detached = 0;
  std::size_t node_count = 0;
  bool all_online = false;
  Fingerprint fp;
};

ChaosResult run_chaos(std::uint64_t seed) {
  HomeCloudConfig cfg;
  cfg.netbooks = 5;  // 5 netbooks + desktop = 6 nodes
  cfg.kv.replication = 2;
  cfg.kv.ack_replication = true;  // acked writes must survive owner crashes
  cfg.start_stabilization = true;
  cfg.start_monitors = false;  // keep the drain check meaningful
  cfg.seed = seed;
  HomeCloud hc{cfg};
  hc.bootstrap();

  const auto prof = thumb_profile();
  hc.registry().add_profile(prof);
  hc.node(1).deploy_service(prof);
  hc.node(2).deploy_service(prof);

  sim::FaultSpec spec;
  spec.msg_drop = 0.10;
  spec.msg_duplicate = 0.03;
  spec.msg_delay = 0.05;
  spec.io_error = 0.02;
  spec.bin_full = 0.01;
  spec.mean_crash_interval = seconds(6);
  spec.mean_downtime = seconds(3);
  spec.mean_flap_interval = seconds(15);
  spec.mean_flap_duration = seconds(2);
  spec.horizon = seconds(40);
  sim::FaultPlan& plan = hc.world().enable_chaos(spec);

  ChaosResult out;
  out.node_count = hc.node_count();

  hc.run([](HomeCloud& h, const services::ServiceProfile& svc, sim::FaultPlan& fp,
            std::uint64_t sd, ChaosResult& r) -> Task<> {
    auto& sim = h.sim();
    (void)co_await h.node(1).publish_services();
    (void)co_await h.node(2).publish_services();

    Rng rng{sd * 2654435761u + 17};  // workload stream, independent of the sim's
    std::map<std::string, Bytes> acked;     // name -> size of acknowledged stores
    std::vector<std::string> acked_names;   // stable pick order

    auto live_node = [&h, &rng]() -> VStoreNode* {
      std::vector<VStoreNode*> live;
      for (std::size_t i = 0; i < h.node_count(); ++i) {
        if (h.node(i).online()) live.push_back(&h.node(i));
      }
      if (live.empty()) return nullptr;
      return live[rng.below(live.size())];
    };

    for (int step = 0; step < 120; ++step) {
      co_await sim.delay(milliseconds(250));
      VStoreNode* n = live_node();
      if (n == nullptr) continue;  // crash floor keeps this from happening
      const double dice = rng.uniform();

      if (dice < 0.45) {
        // Store a fresh object. Unique size per object so a fetch that
        // returns the wrong object's data is detectable by size alone.
        const std::string name = "chaos-" + std::to_string(step) + ".jpg";
        const Bytes size = 64 * 1024 + static_cast<Bytes>(step) * 2048;
        (void)co_await n->create_object(chaos_meta(name, size));
        auto stored = co_await n->store_object(name);
        if (stored.ok()) {
          acked.emplace(name, size);
          acked_names.push_back(name);
        }
      } else if (dice < 0.80) {
        // Fetch an acknowledged object. Transient failure is fine while
        // faults fly; returning the wrong bytes never is.
        if (acked_names.empty()) continue;
        const std::string& name = acked_names[rng.below(acked_names.size())];
        auto fetched = co_await n->fetch_object(name);
        if (fetched.ok() && fetched->size != acked.at(name)) ++r.wrong;
      } else if (dice < 0.90) {
        // Fetch a name that was never stored: must never "succeed".
        auto fetched = co_await n->fetch_object("bogus-" + std::to_string(step));
        if (fetched.ok()) ++r.phantom;
      } else {
        // Process an acknowledged object somewhere in the home.
        if (acked_names.empty()) continue;
        const std::string& name = acked_names[rng.below(acked_names.size())];
        (void)co_await n->process(name, svc);
      }
    }

    // Let the fault horizon pass, then wait for every crashed node to come
    // back (restart is scheduled even past the horizon) and for repair /
    // re-replication to settle.
    while (sim.now() < fp.deadline()) co_await sim.delay(seconds(1));
    for (int i = 0; i < 60; ++i) {
      bool all = true;
      for (std::size_t j = 0; j < h.node_count(); ++j) {
        if (!h.node(j).online()) all = false;
      }
      if (all) break;
      co_await sim.delay(seconds(1));
    }
    fp.disarm();
    co_await sim.delay(seconds(5));  // repair + restore_replication tail

    r.all_online = true;
    for (std::size_t j = 0; j < h.node_count(); ++j) {
      if (!h.node(j).online()) r.all_online = false;
    }

    // Final verification with faults off: every acknowledged object must be
    // fetchable with exactly its stored size.
    VStoreNode* reader = live_node();
    if (reader == nullptr) co_return;
    for (const auto& [name, size] : acked) {
      auto fetched = co_await reader->fetch_object(name);
      if (!fetched.ok()) {
        ++r.lost;
        r.lost_detail += name + ": " + std::string(to_string(fetched.code())) + "; ";
        continue;
      }
      if (fetched->size != size) ++r.wrong;
    }
    r.acked = acked.size();
  }(hc, prof, plan, seed, out));

  out.under_replicated = hc.kv().under_replicated();
  out.active_flows = hc.network().active_flows();
  out.detached = hc.sim().detached_count();

  const auto& ks = hc.kv().stats();
  const auto& ns = hc.network().stats();
  const auto& fs = plan.stats();
  out.fp = Fingerprint{ks.puts,
                       ks.gets,
                       ks.op_retries,
                       ks.op_failures,
                       ks.send_timeouts,
                       ns.messages_sent,
                       ns.retransmits,
                       ns.flows_started,
                       fs.messages_dropped,
                       fs.messages_duplicated,
                       fs.io_errors,
                       fs.crashes,
                       fs.restarts,
                       fs.uplink_flaps,
                       hc.sim().now().count(),
                       out.acked};
  return out;
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, AckedWritesSurviveAndReadsAreNeverWrong) {
  const std::uint64_t seed = GetParam();
  const ChaosResult r = run_chaos(seed);

  // The chaos layer must actually have bitten (otherwise the run proved
  // nothing): messages were dropped and at least some stores were acked.
  EXPECT_GT(r.fp.dropped, 0u) << "seed " << seed;
  EXPECT_GT(r.fp.net_retransmits, 0u) << "seed " << seed;
  EXPECT_GT(r.acked, 10u) << "seed " << seed;

  EXPECT_TRUE(r.all_online) << "seed " << seed << ": a crashed node never restarted";
  EXPECT_EQ(r.lost, 0) << "seed " << seed << ": acknowledged store lost [" << r.lost_detail
                       << "]";
  EXPECT_EQ(r.wrong, 0) << "seed " << seed << ": fetch returned wrong data";
  EXPECT_EQ(r.phantom, 0) << "seed " << seed << ": fetch of never-stored name succeeded";
  EXPECT_EQ(r.under_replicated, 0u)
      << "seed " << seed << ": replication factor not restored after churn";
  EXPECT_EQ(r.active_flows, 0u) << "seed " << seed << ": leaked network flow";
  // Stabilization loops (one per node) legitimately persist; anything much
  // beyond that is a leaked coroutine.
  EXPECT_LE(r.detached, 2 * r.node_count + 8) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Values(7001, 7002, 7003, 7004, 7005, 7006, 7007, 7008, 7009,
                                           7010, 7011, 7012, 7013, 7014, 7015, 7016, 7017, 7018,
                                           7019, 7020, 7021, 7022, 7023, 7024));

TEST(ChaosDeterminism, SameSeedReproducesTheRunExactly) {
  const ChaosResult a = run_chaos(4242);
  const ChaosResult b = run_chaos(4242);
  EXPECT_EQ(a.fp, b.fp);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.wrong, b.wrong);
  EXPECT_EQ(a.detached, b.detached);
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  const ChaosResult a = run_chaos(111);
  const ChaosResult b = run_chaos(222);
  EXPECT_NE(a.fp, b.fp);
}

// The one-home chaos outcome, pinned: the two tests above only compare a
// seed with itself, so a change to how chaos numbers its victims or rotates
// its flaps would pass them. Any change here must be explained.
TEST(ChaosDeterminism, OneHomeFingerprintIsPinned) {
  const Fingerprint fp = run_chaos(7001).fp;
  EXPECT_EQ(fp.kv_puts, 79u);
  EXPECT_EQ(fp.kv_gets, 228u);
  EXPECT_EQ(fp.kv_retries, 10u);
  EXPECT_EQ(fp.kv_failures, 0u);
  EXPECT_EQ(fp.kv_send_timeouts, 10u);
  EXPECT_EQ(fp.net_messages, 1326u);
  EXPECT_EQ(fp.net_retransmits, 64u);
  EXPECT_EQ(fp.net_flows, 96u);
  EXPECT_EQ(fp.dropped, 74u);
  EXPECT_EQ(fp.duplicated, 30u);
  EXPECT_EQ(fp.io_errors, 4u);
  EXPECT_EQ(fp.crashes, 7u);
  EXPECT_EQ(fp.restarts, 7u);
  EXPECT_EQ(fp.flaps, 4u);
  EXPECT_EQ(fp.final_time_ns, 57'196'648'073);
  EXPECT_EQ(fp.acked, 64u);
}

// ---------------------------------------------------------------------------
// Workload-scenario soak: the src/workload generator + Driver running a small
// two-tenant mix under crash churn and uplink flaps. After the faults settle,
// every store the Driver acknowledged must fetch back with exactly its
// catalog size — an acked-then-unfetchable object is a lost write.

workload::WorkloadSpec soak_spec(std::uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.duration = seconds(30);

  workload::TenantSpec writer;
  writer.name = "writer";
  writer.principal = {"writer", TrustLevel::trusted};
  writer.acl.allow("*", {Right::read});  // verification reads from any node
  writer.mix = {0.7, 0.3, 0.0, 0.0};
  writer.object_count = 24;
  writer.size = {64_KB, 512_KB};
  writer.arrival.rate_per_sec = 6.0;
  spec.tenants.push_back(writer);

  workload::TenantSpec reader;
  reader.name = "reader";
  reader.principal = {"reader", TrustLevel::trusted};
  reader.acl.allow("*", {Right::read});
  reader.mix = {0.2, 0.8, 0.0, 0.0};
  reader.object_count = 12;
  reader.size = {64_KB, 256_KB};
  reader.fetch_from = {"writer"};
  reader.arrival.rate_per_sec = 4.0;
  spec.tenants.push_back(reader);

  return spec;
}

struct WorkloadChaosResult {
  std::size_t acked = 0;
  int lost = 0;
  std::string lost_detail;
  std::uint64_t issued = 0;
  std::uint64_t wrong = 0;
  std::uint64_t crashes = 0;
  std::uint64_t flaps = 0;
  bool all_online = false;
};

WorkloadChaosResult run_workload_chaos(std::uint64_t seed) {
  HomeCloudConfig cfg;
  cfg.netbooks = 5;
  cfg.kv.replication = 2;
  cfg.kv.ack_replication = true;
  cfg.start_stabilization = true;
  cfg.start_monitors = false;
  cfg.seed = seed;
  HomeCloud hc{cfg};
  hc.bootstrap();

  sim::FaultSpec spec;
  spec.msg_drop = 0.08;
  spec.msg_delay = 0.05;
  spec.mean_crash_interval = seconds(8);
  spec.mean_downtime = seconds(3);
  spec.mean_flap_interval = seconds(10);
  spec.mean_flap_duration = seconds(2);
  spec.horizon = seconds(35);
  sim::FaultPlan& plan = hc.world().enable_chaos(spec);

  workload::Driver driver{hc.world(), soak_spec(seed)};
  WorkloadChaosResult out;

  hc.run([](HomeCloud& h, workload::Driver& d, sim::FaultPlan& fp, std::uint64_t sd,
            WorkloadChaosResult& r) -> Task<> {
    auto& sim = h.sim();
    const workload::Schedule schedule = workload::generate(soak_spec(sd));
    co_await d.drive(schedule);

    // Settle: past the fault horizon, every node back online, faults off,
    // then a repair/re-replication tail.
    while (sim.now() < fp.deadline()) co_await sim.delay(seconds(1));
    for (int i = 0; i < 60; ++i) {
      bool all = true;
      for (std::size_t j = 0; j < h.node_count(); ++j) {
        if (!h.node(j).online()) all = false;
      }
      if (all) break;
      co_await sim.delay(seconds(1));
    }
    fp.disarm();
    co_await sim.delay(seconds(5));

    r.all_online = true;
    for (std::size_t j = 0; j < h.node_count(); ++j) {
      if (!h.node(j).online()) r.all_online = false;
    }

    VStoreNode* reader = nullptr;
    for (std::size_t j = 0; j < h.node_count(); ++j) {
      if (h.node(j).online()) {
        reader = &h.node(j);
        break;
      }
    }
    if (reader == nullptr) co_return;
    for (const auto& [name, size] : d.result().acked) {
      auto fetched = co_await reader->fetch_object(name);
      if (!fetched.ok()) {
        ++r.lost;
        r.lost_detail += name + ": " + std::string(to_string(fetched.code())) + "; ";
      } else if (fetched->size != size) {
        ++r.lost;
        r.lost_detail += name + ": wrong size; ";
      }
    }
    r.acked = d.result().acked.size();
  }(hc, driver, plan, seed, out));

  out.issued = driver.result().issued();
  out.wrong = driver.result().wrong();
  out.crashes = plan.stats().crashes;
  out.flaps = plan.stats().uplink_flaps;
  return out;
}

class WorkloadChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadChaosSoak, NoAckedWriteLostUnderChurnAndFlaps) {
  const std::uint64_t seed = GetParam();
  const WorkloadChaosResult r = run_workload_chaos(seed);

  // The run must have exercised both the workload and the fault layer.
  EXPECT_GT(r.issued, 50u) << "seed " << seed;
  EXPECT_GT(r.acked, 10u) << "seed " << seed;
  EXPECT_GT(r.crashes + r.flaps, 0u) << "seed " << seed;

  EXPECT_TRUE(r.all_online) << "seed " << seed << ": a crashed node never restarted";
  EXPECT_EQ(r.lost, 0) << "seed " << seed << ": acknowledged store lost [" << r.lost_detail
                       << "]";
  EXPECT_EQ(r.wrong, 0u) << "seed " << seed << ": fetch returned wrong data mid-run";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadChaosSoak, ::testing::Values(8101, 8102, 8103));

// ---------------------------------------------------------------------------
// Adaptive-placement soak: the learned decision policy (PlacementEngine)
// driven through the same churn + uplink-flap fault plan. Two invariants on
// top of the usual no-lost-acked-writes one:
//   - the engine actually decides (its counters move) and never loses an
//     acknowledged write while exploring under faults;
//   - after the faults settle and the uplink is parked degraded, cloud-bound
//     stores re-converge home within a bounded number of observations, with
//     the adaptive cloud threshold strictly shrunk below the object size.

workload::WorkloadSpec adaptive_soak_spec(std::uint64_t seed) {
  workload::WorkloadSpec spec = soak_spec(seed);
  for (auto& t : spec.tenants) t.decision = DecisionPolicy::learned;

  // A service tenant so the engine's choose/observe path (not just the
  // store-veto path) runs under churn.
  workload::TenantSpec vision;
  vision.name = "vision";
  vision.principal = {"vision", TrustLevel::trusted};
  vision.acl.allow("*", {Right::read});
  vision.decision = DecisionPolicy::learned;
  vision.mix = {0.4, 0.1, 0.3, 0.2};
  vision.object_count = 12;
  vision.size = {128_KB, 512_KB};
  vision.service = thumb_profile();
  vision.arrival.rate_per_sec = 3.0;
  spec.tenants.push_back(vision);
  return spec;
}

struct AdaptiveChaosResult {
  std::size_t acked = 0;
  int lost = 0;
  std::string lost_detail;
  std::uint64_t issued = 0;
  std::uint64_t crashes = 0;
  std::uint64_t flaps = 0;
  bool all_online = false;
  std::uint64_t decisions = 0;
  std::uint64_t explorations = 0;
  // Post-flap epilogue: cloud threshold before/after the parked brown-out,
  // and how many stores the engine needed before one stayed home.
  Bytes threshold_before = 0;
  Bytes threshold_after = 0;
  int stores_until_home = -1;
};

AdaptiveChaosResult run_adaptive_chaos(std::uint64_t seed) {
  HomeCloudConfig cfg;
  cfg.netbooks = 5;
  cfg.kv.replication = 2;
  cfg.kv.ack_replication = true;
  cfg.start_stabilization = true;
  cfg.start_monitors = false;
  cfg.seed = seed;
  // A tight upload budget so the veto knob reacts to ~MiB-scale objects.
  cfg.placement.upload_budget = seconds(2);
  HomeCloud hc{cfg};
  hc.bootstrap();

  const auto prof = thumb_profile();
  hc.registry().add_profile(prof);
  hc.node(1).deploy_service(prof);
  hc.node(2).deploy_service(prof);

  sim::FaultSpec spec;
  spec.msg_drop = 0.08;
  spec.msg_delay = 0.05;
  spec.mean_crash_interval = seconds(8);
  spec.mean_downtime = seconds(3);
  spec.mean_flap_interval = seconds(10);
  spec.mean_flap_duration = seconds(2);
  spec.horizon = seconds(35);
  sim::FaultPlan& plan = hc.world().enable_chaos(spec);

  workload::Driver driver{hc.world(), adaptive_soak_spec(seed)};
  AdaptiveChaosResult out;

  hc.run([](HomeCloud& h, workload::Driver& d, sim::FaultPlan& fp, std::uint64_t sd,
            AdaptiveChaosResult& r) -> Task<> {
    auto& sim = h.sim();
    (void)co_await h.node(1).publish_services();
    (void)co_await h.node(2).publish_services();
    const workload::Schedule schedule = workload::generate(adaptive_soak_spec(sd));
    co_await d.drive(schedule);

    while (sim.now() < fp.deadline()) co_await sim.delay(seconds(1));
    for (int i = 0; i < 60; ++i) {
      bool all = true;
      for (std::size_t j = 0; j < h.node_count(); ++j) {
        if (!h.node(j).online()) all = false;
      }
      if (all) break;
      co_await sim.delay(seconds(1));
    }
    fp.disarm();
    co_await sim.delay(seconds(5));

    r.all_online = true;
    for (std::size_t j = 0; j < h.node_count(); ++j) {
      if (!h.node(j).online()) r.all_online = false;
    }

    VStoreNode* reader = nullptr;
    for (std::size_t j = 0; j < h.node_count(); ++j) {
      if (h.node(j).online()) {
        reader = &h.node(j);
        break;
      }
    }
    if (reader == nullptr) co_return;
    for (const auto& [name, size] : d.result().acked) {
      auto fetched = co_await reader->fetch_object(name);
      if (!fetched.ok()) {
        ++r.lost;
        r.lost_detail += name + ": " + std::string(to_string(fetched.code())) + "; ";
      } else if (fetched->size != size) {
        ++r.lost;
        r.lost_detail += name + ": wrong size; ";
      }
    }
    r.acked = d.result().acked.size();

    // ---- Post-flap re-convergence epilogue (deterministic) ----
    StoragePolicy cloud_policy;
    StoreRule to_cloud;
    to_cloud.target = StoreTarget::remote_cloud;
    cloud_policy.rules = {to_cloud};

    auto store_one = [&](const std::string& name, DecisionPolicy dec) -> Task<bool> {
      auto m = chaos_meta(name, 1_MB);
      (void)co_await h.desktop().create_object(m);
      StoreOptions opts;
      opts.policy = cloud_policy;
      opts.decision = dec;
      auto s = co_await h.desktop().store_object(name, opts);
      co_return s.ok() && s->location.is_cloud();
    };

    // Heal: restore a fast WAN and let a few uploads pull the EWMA back up,
    // so the epilogue starts from a cloud-friendly threshold regardless of
    // what the flap phase did to the estimate. (The observed rate sits well
    // under the nominal link rate — latency and dispatch overhead are part
    // of each sample — hence the generous 4 MiB/s.)
    h.set_wan_rates(mib_per_sec(4.0), mib_per_sec(4.0));
    for (int i = 0; i < 10; ++i) {
      (void)co_await store_one("heal/" + std::to_string(i), DecisionPolicy::performance);
      if (h.placement_engine().cloud_threshold() > 1_MB + 512_KB) break;
    }
    r.threshold_before = h.placement_engine().cloud_threshold();

    // Brown-out: park the uplink degraded. Each cloud store is now a painful
    // lesson; the engine must veto (store lands home) within a handful of
    // observations as the threshold collapses below the object size.
    h.set_wan_rates(mib_per_sec(0.05), mib_per_sec(0.1));
    for (int i = 0; i < 12; ++i) {
      const bool cloud = co_await store_one("post/" + std::to_string(i), DecisionPolicy::learned);
      if (!cloud) {
        r.stores_until_home = i + 1;
        break;
      }
    }
    r.threshold_after = h.placement_engine().cloud_threshold();
  }(hc, driver, plan, seed, out));

  out.issued = driver.result().issued();
  out.crashes = plan.stats().crashes;
  out.flaps = plan.stats().uplink_flaps;
  out.decisions = hc.placement_engine().decisions();
  out.explorations = hc.placement_engine().explorations();
  return out;
}

class AdaptiveChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaptiveChaosSoak, LearnedPolicySurvivesFlapsAndReconvergesHome) {
  const std::uint64_t seed = GetParam();
  const AdaptiveChaosResult r = run_adaptive_chaos(seed);

  // The run exercised the workload, the fault layer, AND the engine.
  EXPECT_GT(r.issued, 50u) << "seed " << seed;
  EXPECT_GT(r.acked, 10u) << "seed " << seed;
  EXPECT_GT(r.crashes + r.flaps, 0u) << "seed " << seed;
  EXPECT_GT(r.decisions, 0u) << "seed " << seed << ": learned path never decided";

  EXPECT_TRUE(r.all_online) << "seed " << seed << ": a crashed node never restarted";
  EXPECT_EQ(r.lost, 0) << "seed " << seed << ": acknowledged store lost [" << r.lost_detail
                       << "]";

  // Re-convergence: the parked brown-out must flip placement home within a
  // bounded number of observed uploads (EWMA alpha 0.3 needs ~5 lessons to
  // drag a healed ~2 MiB/s estimate under the 0.5 MiB/s veto point for 1 MB
  // at a 2 s budget), with the threshold strictly shrunk below the object.
  EXPECT_GE(r.threshold_before, 1_MB) << "seed " << seed << ": epilogue started veto-bound";
  ASSERT_NE(r.stores_until_home, -1) << "seed " << seed << ": never re-converged home";
  EXPECT_LE(r.stores_until_home, 8) << "seed " << seed;
  EXPECT_LT(r.threshold_after, 1_MB) << "seed " << seed;
  EXPECT_LT(r.threshold_after, r.threshold_before) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveChaosSoak, ::testing::Values(9101, 9102, 9103));

// ---------------------------------------------------------------------------
// GeoFederation soak: a City (3 neighborhoods × 2 homes × 3 nodes) under
// crash/restart churn, with published objects replicated at degree 2 across
// neighborhoods and a periodic repair sweep. The reachability invariant:
// a fetch may only fail while an object has NO live replica — any failure
// while ≥1 replica's node is up (before and after the fetch, so mid-fetch
// churn doesn't blur the check) is a federation bug, not bad luck. After
// churn settles and a final repair runs, every published object must fetch
// with exactly its published size.

struct FederationChaosResult {
  std::size_t published = 0;
  std::uint64_t fetches = 0;
  int unreachable = 0;  // failed fetch while a live replica existed
  std::string unreachable_detail;
  int lost_after_settle = 0;
  std::string lost_detail;
  std::uint64_t wrong = 0;
  std::uint64_t crashes = 0;
  std::uint64_t repairs = 0;
  bool all_online = false;
};

FederationChaosResult run_federation_chaos(std::uint64_t seed) {
  City city{{.seed = seed, .spines = 2}};
  std::vector<std::unique_ptr<Neighborhood>> hoods;
  std::vector<std::unique_ptr<HomeCloud>> homes;
  for (int h = 0; h < 3; ++h) {
    NeighborhoodConfig nc;
    nc.name = "hood-" + std::to_string(h);
    nc.spine_latency = milliseconds(1 + 3 * h);
    hoods.push_back(std::make_unique<Neighborhood>(city, nc));
    for (int i = 0; i < 2; ++i) {
      HomeCloudConfig cfg;
      cfg.home_name = "h" + std::to_string(h) + "-" + std::to_string(i);
      cfg.netbooks = 2;  // + desktop = 3 nodes
      cfg.kv.replication = 2;
      cfg.kv.ack_replication = true;
      cfg.start_stabilization = true;
      cfg.start_monitors = false;
      cfg.seed = seed + static_cast<std::uint64_t>(h * 2 + i);
      homes.push_back(std::make_unique<HomeCloud>(*hoods.back(), cfg));
    }
  }
  for (auto& hc : homes) hc->bootstrap();
  federation::GeoFederation fed{city, federation::GeoConfig{.replication = 2}};

  // Churn only: this soak isolates the replication/repair invariant, so
  // message/IO faults stay off and uplink flaps are parked.
  sim::FaultSpec spec;
  spec.mean_crash_interval = seconds(5);
  spec.mean_downtime = seconds(4);
  spec.mean_flap_interval = seconds(86400);
  spec.horizon = seconds(30);
  sim::FaultPlan& plan = city.enable_chaos(spec);

  FederationChaosResult out;

  city.run([](City& c, federation::GeoFederation& f, sim::FaultPlan& fp,
              FederationChaosResult& r) -> Task<> {
    auto& sim = c.sim();
    const std::vector<HomeCloud*> all = c.all_homes();

    // Publish a catalog round-robin across every home; unique sizes make
    // wrong-object reads detectable by size alone.
    std::map<std::string, Bytes> published;
    std::vector<std::string> names;
    for (int i = 0; i < 18; ++i) {
      HomeCloud& owner = *all[static_cast<std::size_t>(i) % all.size()];
      const std::string name = "fed-" + std::to_string(i) + ".jpg";
      const Bytes size = 32 * 1024 + static_cast<Bytes>(i) * 4096;
      (void)co_await owner.node(0).create_object(chaos_meta(name, size));
      auto stored = co_await owner.node(0).store_object(name);
      if (!stored.ok()) continue;
      auto pub = co_await f.publish(owner, owner.node(0), name);
      if (pub.ok()) {
        published.emplace(name, size);
        names.push_back(name);
      }
    }
    r.published = published.size();
    if (names.empty()) co_return;

    // Fetch loop under churn, with a repair sweep every ~5 s of loop time.
    for (int step = 0; step < 120; ++step) {
      co_await sim.delay(milliseconds(300));
      if (step % 16 == 15) {
        const std::size_t healed = co_await f.repair_scan();
        (void)healed;
      }
      HomeCloud& reader_home = *all[(static_cast<std::size_t>(step) * 7 + 3) % all.size()];
      VStoreNode* reader = nullptr;
      for (std::size_t j = 0; j < reader_home.node_count(); ++j) {
        if (reader_home.node(j).online()) {
          reader = &reader_home.node(j);
          break;
        }
      }
      if (reader == nullptr) continue;
      const std::string& name = names[(static_cast<std::size_t>(step) * 13) % names.size()];
      const std::size_t live_before = f.live_replicas(name);
      auto got = co_await f.fetch(reader_home, *reader, name);
      const std::size_t live_after = f.live_replicas(name);
      ++r.fetches;
      if (got.ok()) {
        if (got->size != published.at(name)) ++r.wrong;
      } else if (live_before >= 1 && live_after >= 1) {
        ++r.unreachable;
        r.unreachable_detail += name + ": " + std::string(to_string(got.code())) + "; ";
      }
    }

    // Settle: past the horizon, every node back, faults off, repair tail.
    while (sim.now() < fp.deadline()) co_await sim.delay(seconds(1));
    for (int i = 0; i < 60; ++i) {
      bool every = true;
      for (HomeCloud* h : all) {
        for (std::size_t j = 0; j < h->node_count(); ++j) {
          if (!h->node(j).online()) every = false;
        }
      }
      if (every) break;
      co_await sim.delay(seconds(1));
    }
    fp.disarm();
    co_await sim.delay(seconds(5));
    const std::size_t final_heal = co_await f.repair_scan();
    (void)final_heal;

    r.all_online = true;
    for (HomeCloud* h : all) {
      for (std::size_t j = 0; j < h->node_count(); ++j) {
        if (!h->node(j).online()) r.all_online = false;
      }
    }

    // Everyone is back: every published object must be reachable with its
    // exact size from an arbitrary far-away home.
    HomeCloud& verifier = *all.back();
    for (const auto& [name, size] : published) {
      if (f.live_replicas(name) == 0) {
        ++r.lost_after_settle;
        r.lost_detail += name + ": zero live replicas; ";
        continue;
      }
      auto got = co_await f.fetch(verifier, verifier.node(0), name);
      if (!got.ok()) {
        ++r.lost_after_settle;
        r.lost_detail += name + ": " + std::string(to_string(got.code())) + "; ";
      } else if (got->size != size) {
        ++r.lost_after_settle;
        r.lost_detail += name + ": wrong size; ";
      }
    }
  }(city, fed, plan, out));

  out.crashes = plan.stats().crashes;
  out.repairs = fed.stats().repairs;
  return out;
}

class FederationChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FederationChaosSoak, PublishedObjectsReachableWhileAnyReplicaLives) {
  const std::uint64_t seed = GetParam();
  const FederationChaosResult r = run_federation_chaos(seed);

  // The soak must have exercised the machinery: churn bit, the catalog
  // published, and the fetch loop ran.
  EXPECT_GT(r.crashes, 0u) << "seed " << seed;
  EXPECT_GE(r.published, 15u) << "seed " << seed;
  EXPECT_GT(r.fetches, 80u) << "seed " << seed;

  EXPECT_EQ(r.unreachable, 0)
      << "seed " << seed << ": fetch failed with a live replica [" << r.unreachable_detail << "]";
  EXPECT_EQ(r.wrong, 0u) << "seed " << seed << ": fetch returned wrong size";
  EXPECT_TRUE(r.all_online) << "seed " << seed << ": a crashed node never restarted";
  EXPECT_EQ(r.lost_after_settle, 0)
      << "seed " << seed << ": object unreachable after settle [" << r.lost_detail << "]";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationChaosSoak, ::testing::Values(9201, 9202, 9203));

}  // namespace
}  // namespace c4h::vstore
