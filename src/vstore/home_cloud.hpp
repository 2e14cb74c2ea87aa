// HomeCloud — builder and container for a complete Cloud4Home deployment:
// the prototypical testbed of §V (five Atom netbooks + one quad-core
// desktop on a 95.5 Mbps LAN, a designated gateway with a wireless uplink
// to the public cloud, S3 storage and an EC2 extra-large instance), plus
// the full software stack (overlay, KV store, monitors, service registry,
// VStore++ on every node).
//
// Every home lives in a World (world.hpp): the clock, the network and the
// public cloud. A standalone HomeCloud owns a private World whose cloud
// endpoint hangs off the home's gateway. A home can instead be built *into
// a Neighborhood of a City* — a shared World where several homes uplink
// into their neighborhood's internet core — to model collaborating
// Cloud4Home infrastructures (§VII (v)). The two differ only in where the
// gateway's uplink ends.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/cloud.hpp"
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
#include "src/vstore/world.hpp"

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

  net::TcpProfile transport = cloud::s3_transport();  // home↔cloud
  kv::KvConfig kv;
  overlay::OverlayConfig overlay;
  mon::MonitorConfig monitor;

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
  /// Standalone home: owns a private World (seeded from `config.seed`)
  /// whose cloud endpoint hangs off this home's gateway.
  explicit HomeCloud(HomeCloudConfig config = {});

  /// Federated home: built into a Neighborhood of a City. The home's
  /// gateway uplinks to the neighborhood's internet core; the World is the
  /// City.
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

  /// The world this home lives in: its own, or its City.
  World& world() { return world_; }
  sim::Simulation& sim() { return world_.sim(); }
  net::Network& network() { return world_.network(); }
  overlay::Overlay& overlay() { return *overlay_; }
  kv::KvStore& kv() { return *kv_; }

  /// This deployment's trace sink. Disabled by default — call
  /// `tracer().set_enabled(true)` to record spans for subsequent operations.
  obs::Tracer& tracer() { return tracer_; }

  /// This home's metrics registry: its placement engine's counters
  /// (c4h.placement.*).
  obs::Registry& metrics() { return metrics_; }

  /// Root trace context for a new operation: null (all recording no-ops)
  /// while the tracer is disabled.
  obs::Ctx trace_ctx() { return tracer_.enabled() ? obs::Ctx{&tracer_, 0} : obs::Ctx{}; }

  cloud::S3Store& s3() { return world_.s3(config_.transport); }
  cloud::Ec2Instance& ec2() { return world_.ec2(); }
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

  net::NetNodeId cloud_endpoint() const { return world_.cloud_endpoint(); }

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
    network().set_link_capacity(wan_up_link_, up);
    network().set_link_capacity(wan_down_link_, down);
  }

  /// Runs a coroutine to completion on the world's clock; periodic
  /// background processes (monitors, heartbeats) keep running but do not
  /// block return.
  void run(sim::Task<> t) { world_.run(std::move(t)); }

 private:
  /// The one constructor body: `hood` is a federated home's Neighborhood,
  /// or null for a standalone home, which then owns a private World.
  HomeCloud(Neighborhood* hood, HomeCloudConfig config);

  /// Crash node `i` now, subject to this home's safety floor (refuses when
  /// one more concurrent offline node could strand a fully-replicated key).
  /// Returns whether the crash happened. Driven by World::enable_chaos.
  bool crash_node(std::size_t i);

  /// Schedules node `i`'s restart (overlay re-join + monitor revival) as a
  /// detached task on the simulation.
  void restart_node_async(std::size_t i);
  sim::Task<> restart_node(std::size_t i);

  friend class VStoreNode;
  friend class World;

  // Declared first, so the World outlives every member below.
  std::unique_ptr<World> owned_world_;  // standalone only
  World& world_;

  HomeCloudConfig config_;
  obs::Tracer tracer_;
  obs::Registry metrics_;

  Neighborhood* hood_ = nullptr;
  bool finalized_ = false;

  net::NetNodeId switch_node_;
  net::NetNodeId gateway_wan_;  // WAN side of the home gateway
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
  std::unique_ptr<overlay::Overlay> overlay_;
  std::unique_ptr<kv::KvStore> kv_;
  std::unique_ptr<services::ServiceRegistry> registry_;
  std::vector<std::unique_ptr<VStoreNode>> nodes_;
  std::set<std::string> cloud_services_;
};

}  // namespace c4h::vstore
