// Composable, deterministic workload generation and execution (DESIGN.md
// §11: the multi-tenant workload model).
//
// Two halves:
//
//  * generate() turns a WorkloadSpec — tenants with op mixes, Zipf
//    popularity, open-loop arrival rates, diurnal modulation, flash crowds —
//    into a Schedule: a global object catalog plus a time-sorted op list.
//    The schedule is a pure function of the spec (seed included): identical
//    specs produce byte-identical schedules (Schedule::fingerprint()).
//
//  * Driver replays a schedule against the homes of a World (one HomeCloud's,
//    or a City's through its GeoFederation): it places each tenant in a home
//    and gives it some of that home's nodes (each node's application VM acts
//    as its tenant's principal), preloads the catalogs, fires open-loop ops
//    at their scheduled times (requests do NOT wait for each other — queues
//    build when the system falls behind, as in production), runs closed-loop
//    clients with think times, and records per-tenant/per-op latency
//    histograms into its DriveResult for tail-latency (p50/p99/p999)
//    extraction.
//
// from_trace() adapts the modified-eDonkey generator (src/trace) into a
// Schedule, pacing the trace's op list as an open-loop Poisson stream.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/federation/geo_federation.hpp"
#include "src/obs/bench_emit.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/trace/edonkey.hpp"
#include "src/vstore/home_cloud.hpp"
#include "src/workload/popularity.hpp"
#include "src/workload/tenant.hpp"

namespace c4h::workload {

struct WorkloadSpec {
  std::vector<TenantSpec> tenants;
  Duration duration = seconds(60);
  DiurnalSpec diurnal;
  std::vector<FlashCrowdSpec> flash_crowds;
  std::uint64_t seed = 1;
};

/// One catalog entry. Sizes are fixed at generation time, so a fetch that
/// returns a size other than the catalog's is wrong data, not bad luck.
struct ObjectSpec {
  std::string name;
  std::string type = "jpg";
  Bytes size = 0;
  std::uint32_t tenant = 0;   // owning tenant; its principal/ACL go on the meta
  bool is_private = false;    // tagged "private" (untrusted VMs lose access)

  bool operator==(const ObjectSpec&) const = default;
};

struct ScheduledOp {
  TimePoint at{};  // relative to the measured run's start (preload excluded)
  std::uint32_t tenant = 0;
  OpKind kind = OpKind::fetch;
  std::uint32_t object = 0;  // index into Schedule::objects

  bool operator==(const ScheduledOp&) const = default;
};

struct Schedule {
  std::vector<ObjectSpec> objects;
  std::vector<ScheduledOp> ops;  // sorted by (at, tenant, per-tenant order)

  /// Deterministic byte serialization of the whole schedule; two schedules
  /// are identical iff their fingerprints are.
  std::string fingerprint() const;

  std::size_t count(OpKind k) const;
  std::size_t count_tenant(std::uint32_t t) const;
};

/// Builds the catalog and the open-loop op stream for every tenant, merged
/// into one time-ordered schedule. Closed-loop tenants contribute catalog
/// objects but no scheduled ops (the Driver runs their clients live).
Schedule generate(const WorkloadSpec& spec);

/// Object indices each tenant may fetch/process: its own catalog plus the
/// catalogs of its `fetch_from` tenants, in spec order. (Exposed so the
/// Driver's closed-loop sampling and generate() share one definition.)
std::vector<std::vector<std::uint32_t>> fetchable_sets(
    const WorkloadSpec& spec, const std::vector<ObjectSpec>& objects);

/// Adapts a modified-eDonkey trace into a schedule: file i becomes object i
/// owned by tenant (i mod clients); each trace op is paced by an exponential
/// gap at `rate_per_sec`. The caller's WorkloadSpec must declare `clients`
/// tenants (their mixes are ignored — the trace dictates the ops).
Schedule from_trace(const trace::TraceWorkload& w, int clients,
                    double rate_per_sec, std::uint64_t seed);

struct TenantStats {
  std::string name;
  std::array<std::uint64_t, 4> issued{};  // indexed by OpKind
  /// Latency of each successful op, indexed by OpKind; `latency[k].count()`
  /// is the number of kind-k ops that succeeded.
  std::array<obs::LogHistogram, 4> latency;
  std::uint64_t failed = 0;   // op returned an error (other than denial)
  std::uint64_t denied = 0;   // permission_denied from acl.hpp
  std::uint64_t skipped = 0;  // no online node / no service to run
  std::uint64_t wrong = 0;    // fetch returned a size ≠ catalog size

  std::uint64_t issued_total() const {
    return issued[0] + issued[1] + issued[2] + issued[3];
  }
  std::uint64_t ok(OpKind k) const { return latency[static_cast<std::size_t>(k)].count(); }
  std::uint64_t ok_total() const {
    return latency[0].count() + latency[1].count() + latency[2].count() + latency[3].count();
  }
};

struct DriveResult {
  std::vector<TenantStats> tenants;
  /// Acknowledged stores (preload + workload): object name → catalog size.
  /// In a City a store is acknowledged once it is also published. The chaos
  /// suite re-reads these after faults settle — an acknowledged write that
  /// cannot be fetched back is a lost write.
  std::map<std::string, Bytes> acked;
  /// Failure breakdown: error-code name → count (covers the `failed` ops;
  /// denials are counted separately).
  std::map<std::string, std::uint64_t> errors;
  /// In a City: successful fetches whose issuing tenant lives in another
  /// neighborhood than the object's owner — the wide-area tier's traffic.
  std::uint64_t cross_hood_fetches = 0;

  std::uint64_t issued() const;
  std::uint64_t ok() const;
  std::uint64_t failed() const;
  std::uint64_t denied() const;
  std::uint64_t wrong() const;
};

/// Executes a schedule against the homes of a World: one standalone home's
/// (`hc.world()`), or a City's. With a GeoFederation, stores also publish
/// into it and fetches go through `fed->fetch`. Construct, then
/// `run(driver.drive(schedule))` on the world; inspect `result()` afterwards.
///
/// Placement: tenant t lives in home t mod H (`World::all_homes()` order;
/// one home is H = 1), and each home's nodes are dealt round-robin among
/// the tenants living there, each node's application VM acting as its
/// tenant's principal. In one home, node i serves tenant i mod T.
///
/// Latencies of successful ops land in `result().tenants[t].latency`.
class Driver {
 public:
  Driver(vstore::World& world, WorkloadSpec spec, federation::GeoFederation* fed = nullptr);

  /// Preloads every catalog object from its owner's nodes, then replays the
  /// schedule and runs closed-loop clients; completes once every issued op
  /// has finished.
  sim::Task<> drive(const Schedule& s);

  const DriveResult& result() const { return result_; }

 private:
  sim::Task<> preload(const Schedule& s);
  sim::Task<> replay(const Schedule& s);
  sim::Task<> tracked(ScheduledOp op, const Schedule& s);
  sim::Task<> closed_client(std::uint32_t tenant, std::uint64_t client_seed,
                            const Schedule& s);
  sim::Task<> execute(const ScheduledOp& op, const Schedule& s);
  sim::Task<Errc> store(vstore::VStoreNode& n, std::uint32_t tenant, const ObjectSpec& obj);
  vstore::HomeCloud& home_of(std::uint32_t tenant) { return *homes_[tenant % homes_.size()]; }
  vstore::VStoreNode* pick_node(std::uint32_t tenant);

  std::vector<vstore::HomeCloud*> homes_;  // World::all_homes() order
  sim::Simulation& sim_;
  federation::GeoFederation* fed_;  // null without a federation
  WorkloadSpec spec_;
  DriveResult result_;
  std::vector<std::vector<vstore::VStoreNode*>> tenant_nodes_;
  std::vector<std::size_t> issue_rr_;  // round-robin cursor per tenant
  std::vector<std::vector<std::uint32_t>> fetchable_;
  TimePoint start_time_{};
  TimePoint end_time_{};
  std::size_t pending_ = 0;
  bool draining_ = false;
  sim::Event done_;
};

/// Appends count/mean/p50/p99/p999 rows, labelled with the tenant's name and
/// named `<prefix><op>.latency.*`, for every (tenant, op) latency histogram
/// that recorded something — the c4h-bench-v1 tail-latency series every
/// scenario bench emits. Rows go op by op (fetch, fetch_process, process,
/// store), tenants in name order within each op.
void emit_tail_series(obs::BenchReport& report, const DriveResult& result,
                      const std::string& prefix = "workload.");

}  // namespace c4h::workload
