// The Cloud4Home overlay fabric: node lifecycle (dynamic join / graceful
// leave / crash + detection) and prefix routing across the home cloud.
//
// All overlay traffic rides the simulated network (per-hop message latency);
// per-hop processing and failure-probe timeouts are configurable. Key
// handoff on leave/failure is delegated to the layer above (the key-value
// store) through registered hooks, mirroring the paper's "a departing node's
// keys are always redistributed among the available set of nodes".
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/result.hpp"
#include "src/net/network.hpp"
#include "src/obs/trace.hpp"
#include "src/overlay/chimera_node.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::overlay {

struct OverlayConfig {
  Duration per_hop_processing = milliseconds(2);  // route computation per hop
  Duration probe_timeout = milliseconds(200);     // detecting a dead next-hop
  Duration stabilize_period = seconds(2);         // neighbour heartbeat
  int max_hops = 64;
};

struct RouteResult {
  Key owner;
  std::vector<Key> path;  // intermediate nodes visited, excluding origin & owner
  int hops = 0;           // network messages taken (path.size() + final hop)
};

struct OverlayStats {
  std::uint64_t routes = 0;
  std::uint64_t route_hops = 0;
  std::uint64_t join_messages = 0;
  std::uint64_t maintenance_messages = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
};

class Overlay {
 public:
  Overlay(sim::Simulation& sim, net::Network& net, OverlayConfig config = {})
      : sim_(sim), net_(net), config_(config) {}

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return net_; }
  const OverlayConfig& config() const { return config_; }

  /// Creates a node bound to `host` (not yet part of the overlay). The node
  /// id is the 40-bit hash of the node's name/address (§III-A).
  ChimeraNode& create_node(const std::string& name, vmm::Host& host);

  /// Joins `node` via `bootstrap` (nullptr for the first node): routes a
  /// join request toward the node's own id, copies routing state from the
  /// nodes encountered, then announces itself.
  [[nodiscard]] sim::Task<Result<void>> join(ChimeraNode& node, ChimeraNode* bootstrap);

  /// Graceful departure: notifies left/right ring neighbours and all other
  /// known peers; runs the registered leave hook first so stored keys can be
  /// handed off while the node is still reachable.
  [[nodiscard]] sim::Task<> leave(ChimeraNode& node);

  /// Abrupt failure: the node's host goes offline with no notification.
  /// Neighbours discover it via the stabilization heartbeat. The node's
  /// incarnation is bumped so its per-life processes (stabilization loop)
  /// retire instead of surviving into the next life.
  void crash(ChimeraNode& node) {
    node.host().set_online(false);
    node.bump_incarnation();
    ++stats_.crashes;
  }

  /// Brings a crashed node back: routing state is wiped (it rejoins from
  /// scratch via `bootstrap`), then the join hook lets the KV layer hand
  /// back the keys this node now owns. Its ObjectFs contents survive the
  /// power cycle — only volatile state is lost.
  [[nodiscard]] sim::Task<Result<void>> restart(ChimeraNode& node, ChimeraNode* bootstrap);

  /// Routes from `origin` toward `target`; resolves the owning node.
  /// If `stop_at` is set and returns true for an intermediate node, routing
  /// stops there (used by the KV layer's path caches). A non-null `ctx`
  /// records an `overlay.route` span whose `net.msg` children are the DHT
  /// hops.
  [[nodiscard]] sim::Task<Result<RouteResult>> route(ChimeraNode& origin, Key target,
                                       const std::function<bool(ChimeraNode&)>& stop_at = {},
                                       obs::Ctx ctx = {});

  /// The `r` live ring successors of `node` (clockwise, nearest first),
  /// excluding itself — the replica set used by the KV layer.
  std::vector<Key> successors_of(Key node, int r);

  /// Starts periodic neighbour heartbeats on every current member.
  void start_stabilization();

  ChimeraNode* node_by_key(Key k) {
    const auto it = nodes_by_key_.find(k);
    return it != nodes_by_key_.end() ? it->second : nullptr;
  }

  /// Members currently believed online (for experiment setup/inspection).
  std::vector<ChimeraNode*> live_members();

  /// Globally correct owner of `key` among online members — the oracle used
  /// by tests to validate routing.
  Key true_owner(Key key);

  /// Hook invoked with (departing node) before a graceful leave announces.
  void set_leave_hook(std::function<sim::Task<>(ChimeraNode&)> hook) {
    leave_hook_ = std::move(hook);
  }

  /// Hook invoked after a node has joined (or re-joined) and announced
  /// itself; lets the KV layer hand the keys in the joiner's arc over to it
  /// ("keys are always redistributed among the available set of nodes").
  void set_join_hook(std::function<sim::Task<>(ChimeraNode&)> hook) {
    join_hook_ = std::move(hook);
  }

  /// Hook invoked when a node is *detected* dead (crash path), after
  /// membership has been repaired; lets the KV layer restore replicas.
  void set_failure_hook(std::function<sim::Task<>(Key)> hook) {
    failure_hook_ = std::move(hook);
  }

  const OverlayStats& stats() const { return stats_; }

 private:
  sim::Task<> announce(ChimeraNode& joiner);
  sim::Task<> stabilize_loop(ChimeraNode& node);
  void remove_everywhere(Key dead);

  sim::Simulation& sim_;
  net::Network& net_;
  OverlayConfig config_;
  std::vector<std::unique_ptr<ChimeraNode>> nodes_;
  std::unordered_map<Key, ChimeraNode*> nodes_by_key_;
  std::function<sim::Task<>(ChimeraNode&)> leave_hook_;
  std::function<sim::Task<>(ChimeraNode&)> join_hook_;
  std::function<sim::Task<>(Key)> failure_hook_;
  std::vector<Key> live_scratch_;  // successors_of's candidates, reused per call
  bool stabilizing_ = false;
  OverlayStats stats_;
};

}  // namespace c4h::overlay
