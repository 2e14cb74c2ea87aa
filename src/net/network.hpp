// Flow-level network engine.
//
// Large object transfers are modelled as fluid flows: every flow traverses a
// fixed path of links, all concurrent flows share link capacity max-min
// fairly, and each flow additionally respects its TCP-model rate cap (slow
// start / window cap / ISP policing) and a per-flow stochastic rate
// multiplier for WAN variability. Flow rates are piecewise constant between
// "network events" (flow arrivals, completions, TCP phase changes); at each
// event every flow's progress is advanced and rates are re-solved.
//
// Exactly one event is pending while flows run: the earliest completion or
// phase boundary over all flows. Every event re-solves every flow and
// reschedules, so no later boundary could fire before being replaced.
//
// Small control messages (VStore++ commands are < 50 bytes, §IV) are pure
// latency: they never book bandwidth.
#pragma once

#include <cstdint>
#include <map>

#include "src/common/rng.hpp"
#include "src/net/fairshare.hpp"
#include "src/obs/trace.hpp"
#include "src/net/tcp_model.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"

namespace c4h::net {

struct NetworkStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t retransmits = 0;  // reliable-path resends after injected drops
  double bytes_delivered = 0;
};

class Network {
 public:
  Network(sim::Simulation& sim, Topology topology)
      : sim_(sim), topo_(std::move(topology)), rng_(sim.rng().fork()) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topo_; }

  /// Transfers `size` bytes from `src` to `dst`; completes when the last
  /// byte is delivered. Loopback (src == dst) costs only the handshake.
  /// A non-null `ctx` records the segment as a `net.transfer` span.
  [[nodiscard]] sim::Task<> transfer(NetNodeId src, NetNodeId dst, Bytes size, TcpProfile profile = {},
                                     obs::Ctx ctx = {});

  /// Striped transfer: splits the object across `streams` parallel
  /// connections and completes when the last byte of the last stripe
  /// lands. Each stripe is its own TCP flow, so window-capped WAN paths
  /// gain up to streams× until the link itself saturates — the paper's
  /// future-work "better object transfer protocols" (§VII).
  [[nodiscard]] sim::Task<> transfer_striped(NetNodeId src, NetNodeId dst, Bytes size, TcpProfile profile,
                               int streams, obs::Ctx ctx = {});

  /// Sends a small control message: path latency (with jitter) plus a fixed
  /// per-hop processing cost; no bandwidth is booked. Reliable: when a fault
  /// plan drops the message, the sender retransmits (paying the loss-
  /// detection timeout each time) until it gets through.
  [[nodiscard]] sim::Task<> send_message(NetNodeId src, NetNodeId dst, Bytes size = 50,
                                         obs::Ctx ctx = {});

  /// Unreliable variant: one send attempt. Returns false if the fault layer
  /// dropped the message — the caller resumes only after its loss-detection
  /// timeout has elapsed, and owns the retry/backoff decision. The hardened
  /// KV/VStore paths use this to drive their own per-operation timeouts.
  [[nodiscard]] sim::Task<bool> try_send_message(NetNodeId src, NetNodeId dst, Bytes size = 50,
                                                 obs::Ctx ctx = {});

  /// One-way message latency sample (used by send_message).
  Duration sample_message_latency(NetNodeId src, NetNodeId dst, Bytes size);

  /// Changes a link's capacity mid-simulation; in-flight flows are advanced
  /// at their old rates and immediately re-solved at the new capacity.
  void set_link_capacity(LinkId link, Rate capacity);

  /// Number of in-flight flows.
  std::size_t active_flows() const { return flows_.size(); }

  const NetworkStats& stats() const { return stats_; }

  /// Fixed per-hop store-and-forward / processing cost for messages.
  void set_hop_processing(Duration d) { hop_processing_ = d; }

 private:
  struct Flow {
    std::vector<LinkId> links;
    double total;           // bytes
    double done = 0;        // bytes delivered
    TcpProfile profile;
    double jitter_mult = 1.0;
    Rate rate = 0;
    TimePoint last_update{};
    sim::Event* completion = nullptr;  // fired once the last byte lands
  };

  void add_flow(const std::vector<LinkId>& links, Bytes size, TcpProfile profile,
                sim::Event& completion);
  void recompute();
  double flow_cap(const Flow& f) const;         // TCP/bottleneck/jitter rate cap
  Duration time_to_event(const Flow& f) const;  // to completion or phase boundary

  sim::Simulation& sim_;
  Topology topo_;
  Rng rng_;
  Duration hop_processing_ = microseconds(100);
  std::uint64_t next_flow_id_ = 1;
  // Ordered by id (= admission order), not hashed: recompute() iterates this
  // table to build the max-min solver's inputs, and floating-point
  // summation order must not depend on hash-table layout — determinism
  // rule D3 (c4h-analyze).
  std::map<std::uint64_t, Flow> flows_;
  sim::EventId next_event_;  // the one pending flow event
  MaxMinSolver solver_;
  NetworkStats stats_;
};

}  // namespace c4h::net
