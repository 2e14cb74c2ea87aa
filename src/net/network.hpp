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

#include <coroutine>
#include <cstdint>
#include <vector>

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
    // The memoized route in topo_. Network owns its Topology and never adds
    // a node or link to it, so route()'s vectors are never cleared while a
    // flow points at one.
    const std::vector<LinkId>* links;
    double total;           // bytes
    double done = 0;        // bytes delivered
    TcpProfile profile;
    double jitter_mult = 1.0;
    Rate rate = 0;
    TimePoint last_update{};
    std::coroutine_handle<> waiter;  // the transfer() resumed once the last byte lands
  };

  // What transfer() awaits: admits the flow once the coroutine is suspended.
  // A flow that retires inside its own admission (0 bytes) resumes the
  // coroutine at once, without an event.
  struct Admission {
    Network& net;
    const std::vector<LinkId>& links;
    Bytes size;
    TcpProfile profile;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) { return net.add_flow(links, size, profile, h); }
    void await_resume() const noexcept {}
  };

  /// Admits a flow and re-solves; false if it retired inside its admission.
  bool add_flow(const std::vector<LinkId>& links, Bytes size, TcpProfile profile,
                std::coroutine_handle<> waiter);
  void recompute();
  double flow_cap(const Flow& f) const;         // TCP/bottleneck/jitter rate cap
  Duration time_to_event(const Flow& f) const;  // to completion or phase boundary

  sim::Simulation& sim_;
  Topology topo_;
  Rng rng_;
  Duration hop_processing_ = microseconds(100);
  // In admission order: recompute() compacts it in place as flows retire,
  // so the max-min solver always sees flows in the same order. Its
  // floating-point summation order therefore depends on nothing but the
  // history — determinism rule D3 (c4h-analyze).
  std::vector<Flow> flows_;
  std::vector<std::coroutine_handle<>> completed_;  // recompute()'s scratch
  sim::EventId next_event_;  // the one pending flow event
  MaxMinSolver solver_;
  NetworkStats stats_;
};

}  // namespace c4h::net
