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

HomeCloud::HomeCloud(HomeCloudConfig config) : HomeCloud(nullptr, std::move(config)) {}

HomeCloud::HomeCloud(Neighborhood& hood, HomeCloudConfig config)
    : HomeCloud(&hood, std::move(config)) {}

HomeCloud::HomeCloud(Neighborhood* hood, HomeCloudConfig config)
    : owned_world_(hood == nullptr ? std::make_unique<World>(config.seed) : nullptr),
      world_(hood == nullptr ? *owned_world_ : hood->city()),
      config_(std::move(config)),
      tracer_(world_.sim(), config_.seed),
      hood_(hood) {
  net::Topology& topo = world_.topology();
  switch_node_ = topo.add_node();
  gateway_wan_ = topo.add_node();
  // The gateway's uplink ends at the neighborhood's internet core, or, for
  // a standalone home, at the cloud endpoint: its whole "internet".
  const net::NetNodeId uplink =
      hood_ != nullptr ? hood_->internet_core() : world_.add_cloud_endpoint();
  topo.add_duplex(switch_node_, gateway_wan_, config_.lan_rate, config_.lan_latency);
  wan_up_link_ = topo.add_link(gateway_wan_, uplink, config_.wan_up, config_.wan_latency,
                               config_.wan_latency_jitter, config_.wan_rate_jitter);
  wan_down_link_ = topo.add_link(uplink, gateway_wan_, config_.wan_down, config_.wan_latency,
                                 config_.wan_latency_jitter, config_.wan_rate_jitter);
  world_.register_home(hood_ != nullptr ? hood_->city_index() : 0, this);
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
  auto host = std::make_unique<vmm::Host>(sim(), spec.host);
  net::Topology& topo = world_.topology();
  const auto nn = topo.add_node();
  topo.add_duplex(nn, switch_node_, config_.lan_rate, config_.lan_latency);
  host->set_net_node(nn);
  hosts_.push_back(std::move(host));
  pending_specs_.push_back(spec);
  return hosts_.size() - 1;
}

void HomeCloud::bootstrap() {
  assert(!finalized_);
  finalized_ = true;

  // The first bootstrap in a world builds its network, freezing the
  // topology; the network's counters land in the world's registry.
  overlay_ = std::make_unique<overlay::Overlay>(sim(), network(), config_.overlay);
  kv_ = std::make_unique<kv::KvStore>(*overlay_, config_.kv);
  registry_ = std::make_unique<services::ServiceRegistry>(*kv_);

  placement_engine_.register_metrics(metrics_);

  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const HomeNodeSpec& spec = pending_specs_[i];
    auto& chim = overlay_->create_node(spec.host.name, *hosts_[i]);
    auto& guest = hosts_[i]->create_guest(spec.host.name + "/app-vm", spec.guest_vcpus,
                                          spec.guest_memory);
    nodes_.push_back(std::make_unique<VStoreNode>(*this, chim, guest, spec.fs, spec.xensocket));
  }

  // Join everyone and publish initial resource records.
  run([](HomeCloud& hc) -> sim::Task<> {
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
  sim().spawn(restart_node(i % nodes_.size()));
}

sim::FaultPlan& World::enable_chaos(const sim::FaultSpec& spec) {
  const std::vector<HomeCloud*> homes = all_homes();
  for ([[maybe_unused]] const HomeCloud* h : homes) {
    assert(h->finalized_ && "enable_chaos must follow bootstrap()");
  }
  sim::FaultPlan& plan = sim::install_fault_plan(sim(), spec);

  // Victim space: every node of every home, numbered home-major over
  // all_homes(). Each home's own safety floor still applies: a crash that
  // could strand a fully-replicated key inside one home is refused, and
  // the plan moves on.
  const auto locate = [homes](std::size_t victim) -> std::pair<HomeCloud*, std::size_t> {
    for (HomeCloud* h : homes) {
      if (victim < h->node_count()) return {h, victim};
      victim -= h->node_count();
    }
    return {nullptr, 0};
  };
  sim::ChurnHooks hooks;
  hooks.victim_count = [homes] {
    std::size_t n = 0;
    for (const HomeCloud* h : homes) n += h->node_count();
    return n;
  };
  hooks.crash = [locate](std::size_t victim) {
    const auto [home, i] = locate(victim);
    return home != nullptr && home->crash_node(i);
  };
  hooks.restart = [locate](std::size_t victim) {
    const auto [home, i] = locate(victim);
    if (home != nullptr) home->restart_node_async(i);
  };
  // Uplink flaps rotate across homes: each flap parks one home's WAN (the
  // next one each time), isolating that home from the wide area while the
  // rest of the world keeps serving.
  hooks.uplink_down = [this, homes](bool down) {
    if (homes.empty()) return;
    if (down) {
      flapped_home_ = homes[flap_cursor_ % homes.size()];
      ++flap_cursor_;
      flapped_home_->set_wan_rates(Rate{1.0}, Rate{1.0});  // effectively parked, not severed
    } else if (flapped_home_ != nullptr) {
      const HomeCloudConfig& hc = flapped_home_->config();
      flapped_home_->set_wan_rates(hc.wan_up, hc.wan_down);
      flapped_home_ = nullptr;
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
    return cloud::intra_cloud_move(size);
  }
  if (!from_cloud && !to_cloud) {
    return milliseconds(5) + transfer_time(size, config_.lan_rate);
  }
  // Crossing the WAN; direction decides which link binds.
  const Rate r = to_cloud ? config_.wan_up : config_.wan_down;
  return config_.transport.handshake + transfer_time(size, r);
}

}  // namespace c4h::vstore
