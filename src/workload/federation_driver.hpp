// Workload replay over the city federation (DESIGN.md §12 meets §11):
// tenants are spread across every home in every neighborhood, stores
// publish into the GeoFederation directory, and fetches go through its
// geo-aware replica selection — so a tenant whose `fetch_from` peers live
// in other neighborhoods generates genuine cross-neighborhood traffic, and
// the per-tenant tail histograms measure the two-tier fetch paths.
//
// The schedule contract is Driver's (same generate(), same open-loop
// replay, same per-tenant stats); only the execution surface differs:
// ops run against (home, federation) instead of a single home's VStore++.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/federation/geo_federation.hpp"
#include "src/workload/workload.hpp"

namespace c4h::workload {

struct FedDriveResult {
  std::vector<TenantStats> tenants;
  /// Successfully published objects (preload + re-stores): name → size.
  /// The chaos suite re-fetches these after churn settles.
  std::map<std::string, Bytes> published;
  std::map<std::string, std::uint64_t> errors;
  /// Fetches whose issuing tenant lives in a different neighborhood than
  /// the object's owner — the traffic the wide-area tier exists for.
  std::uint64_t cross_hood_fetches = 0;

  std::uint64_t issued() const;
  std::uint64_t ok() const;
  std::uint64_t failed() const;
};

/// Executes a Schedule against a City through a GeoFederation. Tenant t is
/// homed at `city.all_homes()[t % homes]` (interleaved across
/// neighborhoods, so consecutive tenants live in different neighborhoods
/// and `fetch_from` neighbors produce cross-neighborhood fetches).
/// Latencies land in the CITY registry as
/// `c4h.workload.fed_<op>.latency_ns{tenant=<name>}`.
class FederationDriver {
 public:
  FederationDriver(vstore::City& city, federation::GeoFederation& fed, WorkloadSpec spec);

  /// Preloads and publishes every catalog object from its owner's home,
  /// then replays the schedule open-loop; completes once every issued op
  /// has finished.
  sim::Task<> drive(const Schedule& s);

  const FedDriveResult& result() const { return result_; }

  /// The home serving a tenant (exposed for tests/benches to reason about
  /// expected locality).
  vstore::HomeCloud& tenant_home(std::uint32_t tenant) {
    return *homes_[tenant % homes_.size()];
  }

 private:
  sim::Task<> preload(const Schedule& s);
  sim::Task<> tracked(ScheduledOp op, const Schedule& s);
  sim::Task<> execute(const ScheduledOp& op, const Schedule& s);
  vstore::VStoreNode* pick_node(std::uint32_t tenant);
  obs::LogHistogram& latency_histogram(std::uint32_t tenant, OpKind kind);

  vstore::City& city_;
  federation::GeoFederation& fed_;
  WorkloadSpec spec_;
  FedDriveResult result_;
  std::vector<vstore::HomeCloud*> homes_;  // City::all_homes() order
  std::vector<std::size_t> issue_rr_;      // per-tenant node cursor
  TimePoint start_time_{};
  std::size_t pending_ = 0;
  bool draining_ = false;
  sim::Event done_;
};

}  // namespace c4h::workload
