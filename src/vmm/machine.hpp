// Virtualization substrate: hosts, the hypervisor's domains, and a
// processor-sharing CPU model.
//
// The paper's prototype runs Xen 3.3 on five dual-core Atom netbooks and a
// quad-core desktop; applications live in guest VMs and VStore++ lives in
// dom0. What the evaluation actually depends on is the *cost structure* of
// that arrangement: CPU capacity (cores × GHz) shared between competing
// executions, per-domain VCPU and memory limits (Fig 7's S2 thrashes because
// its 128 MB VM cannot hold the face-recognition training set), and a
// virtualization overhead factor. This module models exactly those.
//
// CPU model: each running job has outstanding work in gigacycles; all jobs
// on a host share capacity (cores × GHz, discounted by the virtualization
// overhead) max-min fairly, with each job capped by its usable parallelism
// (min of job threads and domain VCPUs) × GHz. Rates are piecewise constant
// between job arrivals/departures — the same fluid approach as the network.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/net/fairshare.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::vmm {

/// Battery model for portable devices (netbooks); drives the paper's
/// battery-aware routing policy.
struct BatterySpec {
  double capacity_wh = 0;  // 0 = mains powered
  double idle_watts = 4.0;
  double busy_watts = 12.0;  // at 100% CPU
};

struct HostSpec {
  std::string name;
  int cores = 2;
  double ghz = 1.66;
  Bytes memory = 1024_MB;
  double virt_overhead = 0.08;  // fraction of cycles lost to the hypervisor
  BatterySpec battery;
};

enum class DomainType { dom0, guest };

class Host;

/// A Xen domain: dom0 (control domain, where VStore++ runs) or a guest VM.
class Domain {
 public:
  Domain(Host& host, std::string name, DomainType type, int vcpus, Bytes memory, int id)
      : host_(&host), name_(std::move(name)), type_(type), vcpus_(vcpus), memory_(memory), id_(id) {}

  Host& host() const { return *host_; }
  const std::string& name() const { return name_; }
  DomainType type() const { return type_; }
  int vcpus() const { return vcpus_; }
  Bytes memory() const { return memory_; }
  int id() const { return id_; }

 private:
  Host* host_;
  std::string name_;
  DomainType type_;
  int vcpus_;
  Bytes memory_;
  int id_;
};

/// Slowdown multiplier when a job's working set exceeds the domain's memory
/// (paging). Linear in the overflow ratio; calibrated so a 2x overflow costs
/// ~4x the time, which reproduces Fig 7's S2 collapse on large images.
double memory_slowdown(Bytes working_set, Bytes domain_memory);

class Host {
 public:
  Host(sim::Simulation& sim, HostSpec spec);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const HostSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /// dom0 is created at construction (the control domain always exists).
  Domain& dom0() { return *domains_.front(); }

  /// Creates a guest VM. Memory is taken from the host pool.
  Domain& create_guest(std::string name, int vcpus, Bytes memory);

  const std::vector<std::unique_ptr<Domain>>& domains() const { return domains_; }

  /// Executes `gigacycles` of work on behalf of `domain` with up to
  /// `threads` of parallelism; completes when the work is done. The work
  /// competes with everything else running on this host.
  sim::Task<> execute(Domain& domain, double gigacycles, int threads = 1);

  /// Usable compute capacity in Gcycles/sec (after virtualization overhead).
  double capacity() const {
    return spec_.cores * spec_.ghz * (1.0 - spec_.virt_overhead);
  }

  /// Instantaneous CPU utilization in [0, 1].
  double cpu_utilization() const;

  /// Free memory (host pool minus domain allocations).
  Bytes free_memory() const { return free_memory_; }

  /// Battery charge fraction in [0, 1]; 1.0 for mains-powered hosts.
  double battery_fraction();

  /// Sets the current charge fraction (experiment setup: start a scenario
  /// with a partially drained device without simulating hours of uptime).
  void set_battery_fraction(double f);

  bool battery_powered() const { return spec_.battery.capacity_wh > 0; }

  /// Attach/query this host's network endpoint.
  void set_net_node(net::NetNodeId id) { net_node_ = id; }
  net::NetNodeId net_node() const { return net_node_; }

  /// Online/offline state (node churn in the home cloud).
  bool online() const { return online_; }
  void set_online(bool v) { online_ = v; }

 private:
  struct Job {
    std::uint64_t id;
    double remaining;  // gigacycles
    double cap;        // Gcycles/sec this job can use at most
    double rate = 0;
    TimePoint last_update{};
    sim::Event* done;
  };

  void advance();
  void recompute();
  void drain_battery_to_now();

  sim::Simulation& sim_;
  HostSpec spec_;
  std::vector<std::unique_ptr<Domain>> domains_;
  Bytes free_memory_;
  net::NetNodeId net_node_;
  bool online_ = true;

  std::uint64_t next_job_id_ = 1;
  // Ordered by id (= submission order), not hashed: recompute() iterates this
  // table into the fair-share solver and cpu_utilization() sums rates, so
  // iteration order must be seed-stable — determinism rule D3 (c4h-analyze).
  std::map<std::uint64_t, Job> jobs_;
  sim::EventId next_event_;  // the earliest job completion
  net::MaxMinSolver solver_;

  double battery_wh_;
  TimePoint battery_updated_{};
};

}  // namespace c4h::vmm
