// World — what homes run in: one simulation clock, one topology and the
// flow-level network built from it, one public cloud (its endpoint, S3 and
// EC2), and the registry of the homes built into it.
//
// There are two kinds of world. A standalone HomeCloud owns a private World
// whose cloud endpoint hangs off the home's own gateway. A City
// (src/federation/neighborhood.hpp) is a World plus a leaf/spine core and
// the neighborhoods wired into it. Homes wire themselves into the topology
// while it is open; the first network() call (a home's bootstrap()) freezes
// it. Chaos has one entry point, enable_chaos(), over every home of the
// world.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "src/cloud/cloud.hpp"
#include "src/net/network.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/simulation.hpp"

namespace c4h::vstore {

class HomeCloud;

class World {
 public:
  explicit World(std::uint64_t seed) : sim_(seed) {}

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Simulation& sim() { return sim_; }

  /// Topology is open for wiring until the first network() finalizes it.
  net::Topology& topology() {
    assert(net_ == nullptr && "topology frozen after first bootstrap");
    return topo_;
  }

  /// Adds the public cloud's endpoint to the topology; called once, by
  /// whoever wires the world (a City, or a standalone home).
  net::NetNodeId add_cloud_endpoint() {
    cloud_ep_ = topology().add_node();
    return cloud_ep_;
  }
  net::NetNodeId cloud_endpoint() const { return cloud_ep_; }

  /// Creates (on first call) and returns the world's network.
  net::Network& network() {
    if (net_ == nullptr) net_ = std::make_unique<net::Network>(sim_, std::move(topo_));
    return *net_;
  }

  /// The one public cloud, created lazily against the network. S3 takes
  /// the transport of the first caller.
  cloud::S3Store& s3(const net::TcpProfile& transport) {
    if (s3_ == nullptr) {
      s3_ = std::make_unique<cloud::S3Store>(network(), cloud_ep_, transport);
    }
    return *s3_;
  }
  cloud::Ec2Instance& ec2() {
    if (ec2_ == nullptr) {
      ec2_ = std::make_unique<cloud::Ec2Instance>(sim_, cloud_ep_,
                                                  cloud::Ec2Instance::extra_large_spec());
    }
    return *ec2_;
  }

  /// Called by the HomeCloud constructor. A site is a neighborhood's index
  /// in its City, or 0 for a standalone home.
  void register_home(std::size_t site, HomeCloud* home) {
    if (site >= sites_.size()) sites_.resize(site + 1);
    sites_[site].push_back(home);
  }

  /// The homes of one site, in construction order.
  const std::vector<HomeCloud*>& homes(std::size_t site) const {
    static const std::vector<HomeCloud*> kNone;
    return site < sites_.size() ? sites_[site] : kNone;
  }

  /// Every home in the world, interleaved round-robin across sites
  /// (site0.home0, site1.home0, ..., site0.home1, ...): the deterministic
  /// enumeration the federation tiers, the workload driver and chaos share.
  std::vector<HomeCloud*> all_homes() const {
    std::vector<HomeCloud*> out;
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (const std::vector<HomeCloud*>& site : sites_) {
        if (i < site.size()) {
          out.push_back(site[i]);
          any = true;
        }
      }
      if (!any) break;
    }
    return out;
  }

  /// Runs a coroutine to completion on the world's clock; periodic
  /// background processes keep running but do not block return.
  void run(sim::Task<> t) { sim_.run_task(std::move(t)); }

  /// Arms deterministic fault injection (sim/fault.hpp) across every home
  /// and wires the churn hooks. Crash/restart victims are numbered
  /// home-major over all_homes(), and each home's safety floor applies
  /// (HomeCloud::crash_node). Each uplink flap parks one home's WAN, the
  /// next home in all_homes() order each time. Must follow every home's
  /// bootstrap(). Returns the installed plan (owned by the simulation) for
  /// inspection and disarming. Defined in home_cloud.cpp (needs HomeCloud).
  sim::FaultPlan& enable_chaos(const sim::FaultSpec& spec);

 private:
  sim::Simulation sim_;
  net::Topology topo_;  // moved into net_ by the first network()
  net::NetNodeId cloud_ep_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<cloud::S3Store> s3_;
  std::unique_ptr<cloud::Ec2Instance> ec2_;
  std::vector<std::vector<HomeCloud*>> sites_;  // homes by site
  // Chaos bookkeeping: which home the current uplink flap parked.
  std::size_t flap_cursor_ = 0;
  HomeCloud* flapped_home_ = nullptr;
};

}  // namespace c4h::vstore
