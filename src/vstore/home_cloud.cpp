#include "src/vstore/home_cloud.hpp"

#include <algorithm>
#include <cassert>

namespace c4h::vstore {

HomeNodeSpec HomeCloudConfig::netbook_spec(const std::string& name) {
  HomeNodeSpec s;
  s.host.name = name;
  s.host.cores = 2;
  s.host.ghz = 1.66;  // dual-core 1.66 GHz Intel Atom N280
  s.host.memory = 1024_MB;
  s.host.battery.capacity_wh = 28.0;
  s.guest_vcpus = 1;
  s.guest_memory = 512_MB;
  return s;
}

HomeNodeSpec HomeCloudConfig::desktop_spec(const std::string& name) {
  HomeNodeSpec s;
  s.host.name = name;
  s.host.cores = 4;
  s.host.ghz = 2.3;  // 2.3 GHz quad-core desktop
  s.host.memory = 4096_MB;
  s.guest_vcpus = 4;
  s.guest_memory = 1024_MB;
  s.fs.mandatory_capacity = 16_GB;
  s.fs.voluntary_capacity = 8_GB;
  s.fs.write_rate = mib_per_sec(90.0);  // desktop-class disk
  s.fs.read_rate = mib_per_sec(110.0);
  return s;
}

HomeCloud::HomeCloud(HomeCloudConfig config)
    : config_(std::move(config)),
      owned_sim_(std::make_unique<sim::Simulation>(config_.seed)),
      sim_(owned_sim_.get()),
      owned_topo_(std::make_unique<net::Topology>()),
      topo_build_(owned_topo_.get()) {
  // Standalone world: the "internet" is just the cloud endpoint.
  switch_node_ = topo_build_->add_node();
  gateway_wan_ = topo_build_->add_node();
  cloud_ep_ = topo_build_->add_node();
  topo_build_->add_duplex(switch_node_, gateway_wan_, config_.lan_rate, config_.lan_latency);
  wan_up_link_ =
      topo_build_->add_link(gateway_wan_, cloud_ep_, config_.wan_up, config_.wan_latency,
                            config_.wan_latency_jitter, config_.wan_rate_jitter);
  wan_down_link_ =
      topo_build_->add_link(cloud_ep_, gateway_wan_, config_.wan_down, config_.wan_latency,
                            config_.wan_latency_jitter, config_.wan_rate_jitter);
  tracer_ = std::make_unique<obs::Tracer>(*sim_, config_.seed);
  for (int i = 0; i < config_.netbooks; ++i) {
    add_node(HomeCloudConfig::netbook_spec(config_.home_name + "/netbook-" + std::to_string(i)));
  }
  if (config_.with_desktop) {
    add_node(HomeCloudConfig::desktop_spec(config_.home_name + "/desktop"));
  }
}

HomeCloud::HomeCloud(Neighborhood& hood, HomeCloudConfig config)
    : config_(std::move(config)),
      hood_(&hood),
      sim_(&hood.city().sim()),
      topo_build_(&hood.city().topology()) {
  // Federated world: the home's gateway uplinks into the neighborhood's
  // internet core; the cloud endpoint is the city's.
  switch_node_ = topo_build_->add_node();
  gateway_wan_ = topo_build_->add_node();
  cloud_ep_ = hood.city().cloud_endpoint();
  topo_build_->add_duplex(switch_node_, gateway_wan_, config_.lan_rate, config_.lan_latency);
  wan_up_link_ = topo_build_->add_link(gateway_wan_, hood.internet_core(), config_.wan_up,
                                       config_.wan_latency, config_.wan_latency_jitter,
                                       config_.wan_rate_jitter);
  wan_down_link_ = topo_build_->add_link(hood.internet_core(), gateway_wan_, config_.wan_down,
                                         config_.wan_latency, config_.wan_latency_jitter,
                                         config_.wan_rate_jitter);
  tracer_ = std::make_unique<obs::Tracer>(*sim_, config_.seed);
  hood.register_home(this);
  for (int i = 0; i < config_.netbooks; ++i) {
    add_node(HomeCloudConfig::netbook_spec(config_.home_name + "/netbook-" + std::to_string(i)));
  }
  if (config_.with_desktop) {
    add_node(HomeCloudConfig::desktop_spec(config_.home_name + "/desktop"));
  }
}

HomeCloud::~HomeCloud() = default;

std::size_t HomeCloud::add_node(const HomeNodeSpec& spec) {
  assert(!finalized_ && "add_node must precede bootstrap()");
  auto host = std::make_unique<vmm::Host>(*sim_, spec.host);
  const auto nn = topo_build_->add_node();
  topo_build_->add_duplex(nn, switch_node_, config_.lan_rate, config_.lan_latency);
  host->set_net_node(nn);
  hosts_.push_back(std::move(host));
  pending_specs_.push_back(spec);
  return hosts_.size() - 1;
}

void HomeCloud::bootstrap() {
  assert(!finalized_);
  finalized_ = true;

  if (hood_ == nullptr) {
    owned_net_ = std::make_unique<net::Network>(*sim_, std::move(*owned_topo_));
    net_ = owned_net_.get();
    owned_s3_ = std::make_unique<cloud::S3Store>(*net_, cloud_ep_, config_.transport);
    s3_ = owned_s3_.get();
    owned_ec2_ = std::make_unique<cloud::Ec2Instance>(
        *sim_, cloud_ep_, cloud::Ec2Instance::extra_large_spec());
    ec2_ = owned_ec2_.get();
  } else {
    City& city = hood_->city();
    net_ = &city.network();  // finalizes the shared topology on first call
    s3_ = &city.s3(config_.transport);
    ec2_ = &city.ec2();
  }

  overlay_ = std::make_unique<overlay::Overlay>(*sim_, *net_, config_.overlay);
  kv_ = std::make_unique<kv::KvStore>(*overlay_, config_.kv);
  registry_ = std::make_unique<services::ServiceRegistry>(*kv_);

  // Mirror layer activity into this home's registry. The network is only
  // wired when this home owns it: in a City the net is shared and a
  // per-home registry would misattribute the other homes' traffic.
  kv_->set_metrics(&metrics_);
  if (hood_ == nullptr) net_->set_metrics(&metrics_);
  placement_engine_.register_metrics(metrics_);

  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const HomeNodeSpec& spec = pending_specs_[i];
    auto& chim = overlay_->create_node(spec.host.name, *hosts_[i]);
    auto& guest = hosts_[i]->create_guest(spec.host.name + "/app-vm", spec.guest_vcpus,
                                          spec.guest_memory);
    nodes_.push_back(std::make_unique<VStoreNode>(*this, chim, guest, spec.fs, spec.xensocket));
  }

  // Join everyone and publish initial resource records.
  sim_->run_task([](HomeCloud& hc) -> sim::Task<> {
    overlay::ChimeraNode* bootstrap_node = nullptr;
    for (auto& n : hc.nodes_) {
      (void)co_await hc.overlay_->join(n->chimera(), bootstrap_node);
      if (bootstrap_node == nullptr) bootstrap_node = &n->chimera();
    }
    for (auto& n : hc.nodes_) {
      co_await n->monitor().publish_once();
    }
  }(*this));

  if (config_.start_monitors) {
    for (auto& n : nodes_) n->monitor().start();
  }
  if (config_.start_stabilization) overlay_->start_stabilization();
}

sim::Task<> HomeCloud::restart_node(std::size_t i) {
  VStoreNode& n = *nodes_[i];
  if (n.online()) co_return;
  overlay::ChimeraNode* boot = nullptr;
  for (auto& m : nodes_) {
    if (m.get() != &n && m->online()) {
      boot = &m->chimera();
      break;
    }
  }
  (void)co_await overlay_->restart(n.chimera(), boot);
  // Bring the node's background processes back for its new incarnation (the
  // previous monitor loop retires on the incarnation bump).
  if (config_.start_monitors) {
    n.monitor().start();
  } else {
    co_await n.monitor().publish_once();
  }
}

bool HomeCloud::crash_node(std::size_t i) {
  VStoreNode& n = *nodes_[i % nodes_.size()];
  if (!n.online()) return false;
  // Safety floor: every key has at most replication+1 live holders
  // (owner + replicas). Refuse any crash that would take the concurrent
  // offline count past `replication`, so at least one live copy of every
  // acknowledged entry always remains.
  std::size_t offline = 0;
  for (const auto& m : nodes_) {
    if (!m->online()) ++offline;
  }
  if (offline + 1 > static_cast<std::size_t>(std::max(0, config_.kv.replication))) return false;
  overlay_->crash(n.chimera());
  return true;
}

void HomeCloud::restart_node_async(std::size_t i) {
  sim_->spawn(restart_node(i % nodes_.size()));
}

sim::FaultPlan& HomeCloud::enable_chaos(const sim::FaultSpec& spec) {
  assert(finalized_ && "enable_chaos must follow bootstrap()");
  sim::FaultPlan& plan = sim::install_fault_plan(*sim_, spec);

  sim::ChurnHooks hooks;
  hooks.victim_count = [this] { return nodes_.size(); };
  hooks.crash = [this](std::size_t victim) { return crash_node(victim); };
  hooks.restart = [this](std::size_t victim) { restart_node_async(victim); };
  hooks.uplink_down = [this](bool down) {
    if (down) {
      set_wan_rates(Rate{1.0}, Rate{1.0});  // effectively parked, not severed
    } else {
      set_wan_rates(config_.wan_up, config_.wan_down);
    }
  };
  plan.start_churn(hooks);
  return plan;
}

VStoreNode* HomeCloud::node_by_key(Key k) {
  for (auto& n : nodes_) {
    if (n->chimera().id() == k) return n.get();
  }
  return nullptr;
}

net::TcpProfile HomeCloud::lan_profile() const {
  net::TcpProfile p;
  p.rtt = Duration::zero();       // window never binds on the LAN
  p.handshake = milliseconds(3);  // connection setup + splice plumbing
  return p;
}

Duration HomeCloud::estimate_move(const ExecSite& from, const ExecSite& to, Bytes size) const {
  if (from == to) return Duration::zero();
  const bool from_cloud = from.kind == ExecSite::Kind::ec2;
  const bool to_cloud = to.kind == ExecSite::Kind::ec2;
  if (from_cloud && to_cloud) {
    return milliseconds(10) + transfer_time(size, mib_per_sec(20.0));  // intra-cloud
  }
  if (!from_cloud && !to_cloud) {
    return milliseconds(5) + transfer_time(size, config_.lan_rate);
  }
  // Crossing the WAN; direction decides which link binds.
  const Rate r = to_cloud ? config_.wan_up : config_.wan_down;
  return config_.transport.handshake + transfer_time(size, r);
}

}  // namespace c4h::vstore
