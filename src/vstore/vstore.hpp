// VStore++ — the Cloud4Home data-services layer (§III).
//
// Each home node runs the full VStore++ stack: applications in a guest VM
// issue CreateObject / StoreObject / FetchObject / Process / Fetch+Process
// commands to the control domain over a XenSocket channel; the control
// domain consults the Chimera-based metadata layer for object locations and
// service registrations, applies storage and routing policies, and moves
// data between local bins, other home nodes' voluntary bins, and the remote
// cloud.
//
// Operations return outcome structs carrying the per-phase cost breakdown
// (DHT lookup / inter-node / inter-domain / decision / execution), which is
// exactly what Table I and Figs 4-8 report.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cloud/cloud.hpp"
#include "src/common/rng.hpp"
#include "src/kv/kvstore.hpp"
#include "src/mon/monitor.hpp"
#include "src/obs/trace.hpp"
#include "src/overlay/overlay.hpp"
#include "src/services/registry.hpp"
#include "src/services/service.hpp"
#include "src/vmm/machine.hpp"
#include "src/vmm/xensocket.hpp"
#include "src/vstore/command.hpp"
#include "src/vstore/object.hpp"
#include "src/vstore/object_fs.hpp"
#include "src/vstore/policy.hpp"

namespace c4h::vstore {

class HomeCloud;

struct StoreOptions {
  bool blocking = true;
  StoragePolicy policy = StoragePolicy::local_first();
  DecisionPolicy decision = DecisionPolicy::performance;
};

struct StoreOutcome {
  ObjectLocation location;
  Duration total{};
  Duration inter_domain{};  // guest → dom0 via XenSocket
  Duration decision{};      // placement choice (incl. resource-record reads)
  Duration placement{};     // disk write / LAN transfer / S3 put
  Duration metadata{};      // KV put
};

struct FetchOutcome {
  Bytes size = 0;
  bool from_cloud = false;
  bool local = false;
  Duration total{};
  Duration dht_lookup{};    // KV metadata get
  Duration inter_node{};    // other-node or cloud transfer (incl. their disk)
  Duration inter_domain{};  // dom0 → guest via XenSocket
};

struct ProcessOutcome {
  ExecSite site;
  Bytes output = 0;
  Duration total{};
  Duration dht_lookup{};
  Duration decision{};
  Duration move{};  // argument movement to the execution site
  Duration exec{};
  Duration result_return{};
};

/// Per-node counters for the hardened operation paths (fault tolerance
/// bookkeeping; the cost breakdowns live in the outcome structs).
struct VStoreNodeStats {
  std::uint64_t fetch_retries = 0;         // fetch attempts beyond the first
  std::uint64_t fetch_cloud_fallbacks = 0; // served from S3 while owner down
  std::uint64_t store_reroutes = 0;        // placement re-routed around a failure
  std::uint64_t op_failures = 0;           // operations that exhausted retries
};

/// One home node's VStore++ instance (guest-facing API + dom0 logic).
class VStoreNode {
 public:
  VStoreNode(HomeCloud& cloud, overlay::ChimeraNode& chimera, vmm::Domain& app_domain,
             ObjectFsConfig fs_config, vmm::XenSocketConfig xs_config);

  overlay::ChimeraNode& chimera() { return chimera_; }
  vmm::Host& host() { return chimera_.host(); }
  vmm::Domain& app_domain() { return app_domain_; }
  ObjectFs& fs() { return fs_; }
  vmm::XenSocketChannel& xensocket() { return xensocket_; }
  mon::ResourceMonitor& monitor() { return *monitor_; }
  const std::string& name() const { return chimera_.name(); }
  bool online() const { return chimera_.online(); }
  const VStoreNodeStats& stats() const { return stats_; }

  /// The principal acting from this node's application VM. Defaults to a
  /// trusted VM named after the node; examples/tests override it to model
  /// multi-user homes and untrusted guests (§VII future work (i)).
  const Principal& principal() const { return principal_; }
  void set_principal(Principal p) { principal_ = std::move(p); }

  /// Declares a service runnable on this node's guest VM (deployment step).
  void deploy_service(const services::ServiceProfile& p) {
    deployed_.insert(p.registry_key_name());
  }
  bool has_service(const services::ServiceProfile& p) const {
    return deployed_.contains(p.registry_key_name());
  }

  /// Publishes this node's deployed services to the registry.
  [[nodiscard]] sim::Task<Result<void>> publish_services();

  // --- The VStore++ application API (called from the guest VM) -----------

  // Every operation opens a root span on the deployment's tracer (when
  // enabled). `parent` lets a caller nest the op under its own span — the
  // composite fetch+process uses this to keep one tree per user request.

  /// Maps a file to an object and creates the mandatory meta information.
  [[nodiscard]] sim::Task<Result<void>> create_object(ObjectMeta meta, obs::Ctx parent = {});

  /// Transfers the object out of the guest and places it per policy.
  [[nodiscard]] sim::Task<Result<StoreOutcome>> store_object(const std::string& name, StoreOptions opts = {},
                                                             obs::Ctx parent = {});

  /// Locates and retrieves an object into the guest VM.
  [[nodiscard]] sim::Task<Result<FetchOutcome>> fetch_object(const std::string& name,
                                                             obs::Ctx parent = {});

  /// Invokes a service on a stored object; the execution site is chosen by
  /// chimeraGetDecision under `policy`. Passing `force` pins the execution
  /// site instead (used by experiments that sweep sites, e.g. Fig 7); the
  /// decision bookkeeping is skipped in that case.
  [[nodiscard]] sim::Task<Result<ProcessOutcome>> process(const std::string& name,
                                            const services::ServiceProfile& service,
                                            DecisionPolicy policy = DecisionPolicy::performance,
                                            std::optional<ExecSite> force = std::nullopt,
                                            obs::Ctx parent = {});

  /// Runs several services back-to-back at ONE site (the surveillance
  /// pipeline: "first perform face detection, and next face recognition
  /// processing on each image"). The argument object moves to the site
  /// once; intermediate outputs stay there; only the final output returns.
  [[nodiscard]] sim::Task<Result<ProcessOutcome>> process_pipeline(
      const std::string& name, const std::vector<services::ServiceProfile>& stages,
      DecisionPolicy policy = DecisionPolicy::performance,
      std::optional<ExecSite> force = std::nullopt, obs::Ctx parent = {});

  /// Fetch with processing attached: runs at the requester if capable, else
  /// at the owner, else wherever the decision engine picks (§III-B).
  [[nodiscard]] sim::Task<Result<ProcessOutcome>> fetch_process(
      const std::string& name, const services::ServiceProfile& service,
      DecisionPolicy policy = DecisionPolicy::performance, obs::Ctx parent = {});

 private:
  friend class HomeCloud;

  // dom0-side helpers.
  sim::Task<Result<ObjectRecord>> lookup_record(const std::string& name, Duration& dht_cost,
                                                obs::Ctx ctx = {});
  /// One locate-and-transfer attempt for fetch_object (lookup, authorize,
  /// data movement into dom0 — no guest delivery). The retry loop wraps it.
  sim::Task<Result<FetchOutcome>> fetch_attempt(const std::string& name, obs::Ctx ctx);
  sim::Task<Result<void>> run_at_site(const ExecSite& site, const ExecSite& owner_site,
                                      const std::string& name,
                                      const std::vector<services::ServiceProfile>& stages,
                                      const ObjectRecord& rec, ProcessOutcome& out,
                                      TimePoint t0, obs::Ctx ctx);
  sim::Task<Result<ObjectLocation>> place_object(const ObjectMeta& meta, StoreOptions& opts,
                                                 StoreOutcome& out, obs::Ctx ctx);
  /// One command and its reply on the shared-memory channel: a fixed delay
  /// inside the `vstore.command` span the awaiter holds.
  struct [[nodiscard]] CommandRoundTrip : sim::Delay {
    obs::ScopedSpan span;
  };
  CommandRoundTrip command_round_trip(obs::Ctx ctx = {});
  /// Root context for an operation: `parent` when set, else the deployment
  /// tracer (null while disabled).
  obs::Ctx op_ctx(obs::Ctx parent);

  /// Access check against a looked-up record; returns the denial if any.
  Result<void> authorize(const ObjectRecord& rec, Right r) const;

  HomeCloud& cloud_;
  overlay::ChimeraNode& chimera_;
  vmm::Domain& app_domain_;
  ObjectFs fs_;
  vmm::XenSocketChannel xensocket_;
  std::unique_ptr<mon::ResourceMonitor> monitor_;
  std::unordered_map<std::string, ObjectMeta> created_;  // pending CreateObject
  std::set<std::string> deployed_;
  Principal principal_;
  Rng rng_;  // retry-backoff jitter; forked from the simulation seed
  VStoreNodeStats stats_;
};

}  // namespace c4h::vstore
