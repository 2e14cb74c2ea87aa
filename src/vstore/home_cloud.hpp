// HomeCloud — builder and container for a complete Cloud4Home deployment:
// the prototypical testbed of §V (five Atom netbooks + one quad-core
// desktop on a 95.5 Mbps LAN, a designated gateway with a wireless uplink
// to the public cloud, S3 storage and an EC2 extra-large instance), plus
// the full software stack (overlay, KV store, monitors, service registry,
// VStore++ on every node).
//
// A HomeCloud normally owns its whole world (simulation, network, public
// cloud). It can instead be built *into a Neighborhood of a City* — a
// shared world where several homes uplink into their neighborhood's
// internet core and share the City's clock, network and public cloud — to
// model collaborating Cloud4Home infrastructures (§VII (v)).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/cloud.hpp"
#include "src/common/retry.hpp"
#include "src/federation/neighborhood.hpp"
#include "src/kv/kvstore.hpp"
#include "src/mon/monitor.hpp"
#include "src/net/network.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/overlay/overlay.hpp"
#include "src/services/registry.hpp"
#include "src/sim/simulation.hpp"
#include "src/vmm/machine.hpp"
#include "src/vstore/adaptive.hpp"
#include "src/vstore/placement_engine.hpp"
#include "src/vstore/vstore.hpp"

namespace c4h::vstore {

struct HomeNodeSpec {
  vmm::HostSpec host;
  int guest_vcpus = 1;
  Bytes guest_memory = 512_MB;
  ObjectFsConfig fs;
  vmm::XenSocketConfig xensocket;
};

struct HomeCloudConfig {
  // The paper's testbed by default.
  int netbooks = 5;
  bool with_desktop = true;

  Rate lan_rate = mbps(95.5);
  Duration lan_latency = microseconds(150);

  // WAN (GaTech wireless → AWS): asymmetric, jittery, averages well below
  // the nominal max.
  Rate wan_up = mib_per_sec(1.0);
  Rate wan_down = mib_per_sec(1.45);
  Duration wan_latency = milliseconds(25);
  double wan_latency_jitter = 0.2;
  double wan_rate_jitter = 0.45;

  cloud::CloudTransport transport;
  kv::KvConfig kv;
  overlay::OverlayConfig overlay;
  mon::MonitorConfig monitor;

  /// Retry/backoff for the hardened VStore++ paths (fetch retries, process
  /// waiting out an owner's restart). The KV layer's policy lives in `kv`.
  RetryPolicy retry;

  bool start_monitors = true;
  bool start_stabilization = false;
  std::uint64_t seed = 42;

  /// Fixed cost of dispatching a service invocation on a node other than the
  /// requester: remote command handling, service wake-up, queueing. Measured
  /// fractions of a second on the paper's Atom-class hardware; this is what
  /// keeps tiny inputs cheapest at the requester (Fig 7's small-image case).
  Duration remote_dispatch = milliseconds(350);

  /// Online adaptive placement (DecisionPolicy::learned): bandit
  /// exploration, prior blending, hysteresis, and the store-veto budget.
  PlacementEngineConfig placement;

  /// Name prefix for this home's devices (distinguishes homes in a
  /// neighborhood; node names feed the 40-bit overlay ids).
  std::string home_name = "home";

  static HomeNodeSpec netbook_spec(const std::string& name);
  static HomeNodeSpec desktop_spec(const std::string& name);
};

class HomeCloud {
 public:
  /// Standalone home: owns its simulation, network, and public cloud.
  explicit HomeCloud(HomeCloudConfig config = {});

  /// Federated home: built into a Neighborhood of a City. The home's
  /// gateway uplinks to the neighborhood's internet core; clock, network
  /// and S3/EC2 are the City's.
  HomeCloud(Neighborhood& hood, HomeCloudConfig config);

  ~HomeCloud();

  HomeCloud(const HomeCloud&) = delete;
  HomeCloud& operator=(const HomeCloud&) = delete;

  /// Adds a node before bootstrap(); returns its index.
  std::size_t add_node(const HomeNodeSpec& spec);

  /// Joins every node into the overlay, publishes initial resource records,
  /// optionally starts monitors/stabilization. Runs the simulation until
  /// the control plane is quiescent.
  void bootstrap();

  sim::Simulation& sim() { return *sim_; }
  net::Network& network() { return *net_; }
  overlay::Overlay& overlay() { return *overlay_; }
  kv::KvStore& kv() { return *kv_; }

  /// This deployment's trace sink. Disabled by default — call
  /// `tracer().set_enabled(true)` to record spans for subsequent operations.
  obs::Tracer& tracer() { return *tracer_; }

  /// This deployment's metrics registry. Always on: the layers record into
  /// it with O(1) counter/histogram updates.
  obs::Registry& metrics() { return metrics_; }

  /// Root trace context for a new operation: null (all recording no-ops)
  /// while the tracer is disabled.
  obs::Ctx trace_ctx() {
    return tracer_->enabled() ? obs::Ctx{tracer_.get(), 0} : obs::Ctx{};
  }

  cloud::S3Store& s3() { return *s3_; }
  cloud::Ec2Instance& ec2() { return *ec2_; }
  services::ServiceRegistry& registry() { return *registry_; }
  const HomeCloudConfig& config() const { return config_; }
  Neighborhood* neighborhood() { return hood_; }

  std::size_t node_count() const { return nodes_.size(); }
  VStoreNode& node(std::size_t i) { return *nodes_.at(i); }

  /// The desktop node (last added when with_desktop), by convention the
  /// public-cloud gateway.
  VStoreNode& desktop() { return *nodes_.back(); }

  VStoreNode* node_by_key(Key k);

  /// True when services are deployed on the EC2 instance (set by examples/
  /// benches that use the cloud for processing).
  void deploy_service_in_cloud(const services::ServiceProfile& p) {
    cloud_services_.insert(p.registry_key_name());
  }
  bool cloud_has_service(const services::ServiceProfile& p) const {
    return cloud_services_.contains(p.registry_key_name());
  }

  /// Nominal movement-time estimate between sites (used by the decision
  /// engine; a static estimate, deliberately ignorant of current load).
  Duration estimate_move(const ExecSite& from, const ExecSite& to, Bytes size) const;

  /// Transfer profile for LAN node-to-node object movement (zero-copy
  /// splice path: no window cap worth modelling, small handshake).
  net::TcpProfile lan_profile() const;

  net::NetNodeId cloud_endpoint() const { return cloud_ep_; }

  /// EWMA of observed home↔cloud throughput, fed by every completed S3
  /// interaction; drives PlacementEngine's cloud-store veto (future work
  /// (iv)).
  WanEstimator& wan_estimator() { return wan_estimator_; }

  /// Online adaptive placement engine backing DecisionPolicy::learned
  /// (bandit + WAN-repriced cost model + hysteresis). Counters are
  /// registered on metrics() at construction.
  PlacementEngine& placement_engine() { return placement_engine_; }

  /// Changes the WAN's nominal rates mid-run (brown-outs, congestion);
  /// in-flight transfers adjust immediately.
  void set_wan_rates(Rate up, Rate down) {
    net_->set_link_capacity(wan_up_link_, up);
    net_->set_link_capacity(wan_down_link_, down);
  }

  /// Runs a coroutine to completion on the simulation; periodic background
  /// processes (monitors, heartbeats) keep running but do not block return.
  void run(sim::Task<> t) { sim_->run_task(std::move(t)); }

  /// Arms deterministic fault injection (sim/fault.hpp) across the whole
  /// deployment and wires the churn hooks: node crash + restart (bounded so
  /// no key can lose every live copy at once) and WAN uplink flaps. Must
  /// follow bootstrap(). Returns the installed plan (owned by the
  /// simulation) for inspection and disarming.
  sim::FaultPlan& enable_chaos(const sim::FaultSpec& spec);

  /// Crash node `i` now, subject to this home's safety floor (refuses when
  /// one more concurrent offline node could strand a fully-replicated key).
  /// Returns whether the crash happened. Shared by this home's own chaos
  /// hooks and City-wide churn.
  bool crash_node(std::size_t i);

  /// Schedules node `i`'s restart (overlay re-join + monitor revival) as a
  /// detached task on the simulation.
  void restart_node_async(std::size_t i);

 private:
  sim::Task<> restart_node(std::size_t i);

  friend class VStoreNode;

  HomeCloudConfig config_;

  std::unique_ptr<obs::Tracer> tracer_;  // constructed once sim_ is known
  obs::Registry metrics_;

  // World: owned when standalone, borrowed from the hood's City otherwise.
  Neighborhood* hood_ = nullptr;
  std::unique_ptr<sim::Simulation> owned_sim_;
  sim::Simulation* sim_ = nullptr;
  std::unique_ptr<net::Topology> owned_topo_;  // standalone, pre-finalize
  net::Topology* topo_build_ = nullptr;        // where wiring happens
  bool finalized_ = false;

  net::NetNodeId switch_node_;
  net::NetNodeId gateway_wan_;  // WAN side of the home gateway
  net::NetNodeId cloud_ep_;
  net::LinkId wan_up_link_ = 0;
  net::LinkId wan_down_link_ = 0;
  WanEstimator wan_estimator_;
  // Engine seed is mixed from the deployment seed so `--seed` varies the
  // exploration stream; never forked from the sim Rng (that would shift
  // every downstream stream and move existing golden histories).
  static PlacementEngineConfig seeded_placement(const HomeCloudConfig& c) {
    PlacementEngineConfig p = c.placement;
    p.seed ^= c.seed * 0x2545F4914F6CDD1DULL;
    return p;
  }
  PlacementEngine placement_engine_{seeded_placement(config_), wan_estimator_};

  std::vector<std::unique_ptr<vmm::Host>> hosts_;
  std::vector<HomeNodeSpec> pending_specs_;
  std::unique_ptr<net::Network> owned_net_;
  net::Network* net_ = nullptr;
  std::unique_ptr<overlay::Overlay> overlay_;
  std::unique_ptr<kv::KvStore> kv_;
  std::unique_ptr<cloud::S3Store> owned_s3_;
  cloud::S3Store* s3_ = nullptr;
  std::unique_ptr<cloud::Ec2Instance> owned_ec2_;
  cloud::Ec2Instance* ec2_ = nullptr;
  std::unique_ptr<services::ServiceRegistry> registry_;
  std::vector<std::unique_ptr<VStoreNode>> nodes_;
  std::set<std::string> cloud_services_;
};

}  // namespace c4h::vstore
