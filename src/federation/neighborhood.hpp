// Multiple collaborating Cloud4Home infrastructures — §VII future work (v):
// "evaluate use cases in which multiple Cloud4Home infrastructures
// collaborate. A concrete example ... would be a 'neighborhood security'
// system in which multiple Cloud4Home systems interact to provide effective
// security services for entire neighborhoods."
//
// A City is the World (src/vstore/world.hpp) several HomeClouds share,
// wired as a leaf/spine wide-area core with the public cloud (S3 + EC2)
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

#include <string>
#include <vector>

#include "src/vstore/world.hpp"

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

/// The metro-scale world: a World whose topology is a leaf/spine core with
/// the cloud endpoint behind the spines, and the neighborhoods federated
/// across it. A neighborhood's index is its site in the World's home
/// registry.
class City : public World {
 public:
  explicit City(CityConfig config = {}) : World(config.seed) {
    net::Topology& topo = topology();
    for (int i = 0; i < config.spines; ++i) {
      spines_.push_back(topo.add_node());
    }
    const net::NetNodeId cloud = add_cloud_endpoint();
    for (const net::NetNodeId s : spines_) {
      topo.add_duplex(s, cloud, config.spine_cloud_rate, config.spine_cloud_latency);
    }
  }

  int spine_count() const { return static_cast<int>(spines_.size()); }
  net::NetNodeId spine(int i) const { return spines_.at(static_cast<std::size_t>(i)); }

  /// Called by the Neighborhood constructor; returns the
  /// neighborhood's index (its identity in the federation tiers).
  std::size_t register_neighborhood(Neighborhood* n) {
    hoods_.push_back(n);
    return hoods_.size() - 1;
  }
  const std::vector<Neighborhood*>& neighborhoods() const { return hoods_; }

  /// Routed propagation latency between two neighborhoods' cores — the
  /// geo-distance the federation's replica selection minimizes. Finalizes
  /// the network on first use.
  Duration site_latency(std::size_t a, std::size_t b);

 private:
  std::vector<net::NetNodeId> spines_;
  std::vector<Neighborhood*> hoods_;
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

  /// This neighborhood's homes, in construction order.
  const std::vector<HomeCloud*>& homes() const { return city_.homes(city_index_); }

 private:
  NeighborhoodConfig config_;
  City& city_;
  std::size_t city_index_ = 0;
  net::NetNodeId core_;
};

inline Duration City::site_latency(std::size_t a, std::size_t b) {
  return network().topology().path_latency(hoods_.at(a)->internet_core(),
                                           hoods_.at(b)->internet_core());
}

}  // namespace c4h::vstore
