// Multiple collaborating Cloud4Home infrastructures — §VII future work (v):
// "evaluate use cases in which multiple Cloud4Home infrastructures
// collaborate. A concrete example ... would be a 'neighborhood security'
// system in which multiple Cloud4Home systems interact to provide effective
// security services for entire neighborhoods."
//
// A City is the world several HomeClouds share: one simulation clock, one
// network with a leaf/spine wide-area core, and one public cloud (S3 + EC2)
// hanging off the spine as the datacenter every neighborhood can reach.
//
// A Neighborhood is built into a City: its internet core becomes a *leaf*
// that uplinks into every spine switch, and its homes' gateways uplink into
// that core. A neighborhood's distance to the spine
// (`NeighborhoodConfig::spine_latency`) is its geographic position;
// inter-neighborhood latency falls out of the routed leaf→spine→leaf path,
// so geo-aware policies read locality straight from src/net. Homes remain
// autonomous — each keeps its own overlay, key-value store, monitors, and
// policies — and interact only through the city directory
// (geo_federation.hpp).
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/cloud.hpp"
#include "src/net/network.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/simulation.hpp"

namespace c4h::vstore {

class HomeCloud;
class Neighborhood;

struct NeighborhoodConfig {
  /// Unread: the City's seed drives the shared clock.
  std::uint64_t seed = 42;

  /// Display name; distinguishes neighborhoods inside a City.
  std::string name = "hood";

  // The leaf↔spine uplinks. `spine_latency` is this neighborhood's
  // propagation distance to the metro core: the geo-coordinate the
  // federation's locality policies observe.
  Rate spine_rate = mbps(400);
  Duration spine_latency = milliseconds(2);
};

struct CityConfig {
  std::uint64_t seed = 42;

  /// Spine switches in the wide-area core; every neighborhood leaf uplinks
  /// to all of them.
  int spines = 2;

  // Spine ↔ cloud datacenter: the metro backbone's peering link.
  Rate spine_cloud_rate = mbps(2000);
  Duration spine_cloud_latency = milliseconds(4);
};

/// The metro-scale world: one clock, one topology with a leaf/spine core,
/// one public cloud, and the neighborhoods federated across it.
class City {
 public:
  explicit City(CityConfig config = {})
      : config_(config),
        sim_(std::make_unique<sim::Simulation>(config.seed)),
        owned_topo_(std::make_unique<net::Topology>()) {
    for (int i = 0; i < config_.spines; ++i) {
      spines_.push_back(owned_topo_->add_node());
    }
    cloud_ep_ = owned_topo_->add_node();
    for (const net::NetNodeId s : spines_) {
      owned_topo_->add_duplex(s, cloud_ep_, config_.spine_cloud_rate,
                              config_.spine_cloud_latency);
    }
  }

  City(const City&) = delete;
  City& operator=(const City&) = delete;

  sim::Simulation& sim() { return *sim_; }
  int spine_count() const { return static_cast<int>(spines_.size()); }
  net::NetNodeId spine(int i) const { return spines_.at(static_cast<std::size_t>(i)); }
  net::NetNodeId cloud_endpoint() const { return cloud_ep_; }

  /// Topology is open for wiring until the first network() finalizes it.
  net::Topology& topology() {
    assert(net_ == nullptr && "topology frozen after first bootstrap");
    return *owned_topo_;
  }

  /// Creates (on first call) and returns the city-wide shared network.
  /// City-wide message/flow counters land in this City's metrics registry.
  net::Network& network() {
    if (net_ == nullptr) {
      net_ = std::make_unique<net::Network>(*sim_, std::move(*owned_topo_));
      net_->set_metrics(&metrics_);
    }
    return *net_;
  }

  /// The one shared public cloud, created lazily against the shared network.
  cloud::S3Store& s3(const cloud::CloudTransport& transport) {
    if (s3_ == nullptr) {
      s3_ = std::make_unique<cloud::S3Store>(network(), cloud_ep_, transport);
    }
    return *s3_;
  }
  cloud::Ec2Instance& ec2() {
    if (ec2_ == nullptr) {
      ec2_ = std::make_unique<cloud::Ec2Instance>(*sim_, cloud_ep_,
                                                  cloud::Ec2Instance::extra_large_spec("ec2-city"));
    }
    return *ec2_;
  }

  /// Called by the Neighborhood constructor; returns the
  /// neighborhood's index (its identity in the federation tiers).
  std::size_t register_neighborhood(Neighborhood* n) {
    hoods_.push_back(n);
    return hoods_.size() - 1;
  }
  const std::vector<Neighborhood*>& neighborhoods() const { return hoods_; }

  /// City-scope metrics (federation counters/histograms, network totals).
  obs::Registry& metrics() { return metrics_; }

  /// Routed propagation latency between two neighborhoods' cores — the
  /// geo-distance the federation's replica selection minimizes. Finalizes
  /// the network on first use.
  Duration site_latency(std::size_t a, std::size_t b);

  /// Every home in the city, interleaved round-robin across neighborhoods
  /// (hood0.home0, hood1.home0, ..., hood0.home1, ...): the deterministic
  /// enumeration the federation tiers and workload drivers share.
  std::vector<HomeCloud*> all_homes() const;

  /// Runs a coroutine to completion on the shared clock.
  void run(sim::Task<> t) { sim_->run_task(std::move(t)); }

  /// Arms deterministic city-wide fault injection: node crash/restart churn
  /// sweeps every home in every neighborhood (each home's per-home safety
  /// floor still applies), and uplink flaps rotate across homes. Must follow
  /// every home's bootstrap(). Defined in city.cpp (needs HomeCloud).
  sim::FaultPlan& enable_chaos(const sim::FaultSpec& spec);

 private:
  CityConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Topology> owned_topo_;
  std::vector<net::NetNodeId> spines_;
  net::NetNodeId cloud_ep_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<cloud::S3Store> s3_;
  std::unique_ptr<cloud::Ec2Instance> ec2_;
  std::vector<Neighborhood*> hoods_;
  obs::Registry metrics_;
  // Chaos bookkeeping: which home the current uplink flap hit.
  std::size_t flap_cursor_ = 0;
  HomeCloud* flapped_home_ = nullptr;
};

class Neighborhood {
 public:
  /// Built into `city`: the core becomes a leaf of the city's spine; clock,
  /// topology, and public cloud are the city's.
  Neighborhood(City& city, NeighborhoodConfig config)
      : config_(std::move(config)), city_(city) {
    net::Topology& topo = city.topology();
    core_ = topo.add_node();
    for (int i = 0; i < city.spine_count(); ++i) {
      topo.add_duplex(core_, city.spine(i), config_.spine_rate, config_.spine_latency);
    }
    city_index_ = city.register_neighborhood(this);
  }

  Neighborhood(const Neighborhood&) = delete;
  Neighborhood& operator=(const Neighborhood&) = delete;

  net::NetNodeId internet_core() const { return core_; }
  const NeighborhoodConfig& config() const { return config_; }

  /// The owning City and this neighborhood's index in it.
  City& city() const { return city_; }
  std::size_t city_index() const { return city_index_; }

  void register_home(HomeCloud* home) { homes_.push_back(home); }
  const std::vector<HomeCloud*>& homes() const { return homes_; }

 private:
  NeighborhoodConfig config_;
  City& city_;
  std::size_t city_index_ = 0;
  net::NetNodeId core_;
  std::vector<HomeCloud*> homes_;
};

inline Duration City::site_latency(std::size_t a, std::size_t b) {
  return network().topology().path_latency(hoods_.at(a)->internet_core(),
                                           hoods_.at(b)->internet_core());
}

inline std::vector<HomeCloud*> City::all_homes() const {
  std::vector<HomeCloud*> out;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const Neighborhood* nb : hoods_) {
      if (i < nb->homes().size()) {
        out.push_back(nb->homes()[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

}  // namespace c4h::vstore
