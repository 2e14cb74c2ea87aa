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
// Under the default `global` model exactly one event is pending while flows
// run: the earliest completion or phase boundary over all flows. Every
// event re-solves every flow and reschedules, so no later boundary could
// fire before being replaced.
//
// Small control messages (VStore++ commands are < 50 bytes, §IV) are pure
// latency: they never book bandwidth.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/net/fairshare.hpp"
#include "src/obs/metrics.hpp"
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

/// Rate-allocation model (ROADMAP item 1).
///
///  * `global` — the original engine: every network event re-solves max-min
///    rates for *all* flows. Byte-identical to the pre-arena engine; the
///    default, and what every golden/scenario artifact is pinned against.
///  * `incremental` — re-solves only the connected component of the
///    flow–link conflict graph the event touched (FairShareEngine). Rates
///    agree with the global solve to ~1e-9 (property-tested), but the
///    floating-point operation order differs, so artifacts are not
///    byte-comparable across models.
///  * `analytical` — no water-filling at all: rate = min(flow cap,
///    min over links capacity/flows-on-link). The Graphite-style closed
///    form; cheapest, least faithful under skewed sharing.
enum class NetModel { global, incremental, analytical };

class Network {
 public:
  Network(sim::Simulation& sim, Topology topology)
      : sim_(sim), topo_(std::move(topology)), rng_(sim.rng().fork()),
        link_flows_(topo_.link_count()) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topo_; }

  /// Selects the rate-allocation model. Must be called before any flow is
  /// admitted; switching mid-flight is not supported.
  void set_model(NetModel m);
  NetModel model() const { return model_; }

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

  /// Current aggregate rate of flows crossing `link` (bytes/sec).
  /// O(flows on that link) via the per-link index.
  Rate link_load(LinkId link) const;

  /// Changes a link's capacity mid-simulation; in-flight flows are advanced
  /// at their old rates and immediately re-solved at the new capacity.
  void set_link_capacity(LinkId link, Rate capacity);

  /// Number of in-flight flows.
  std::size_t active_flows() const { return flows_.size(); }

  const NetworkStats& stats() const { return stats_; }

  /// Fixed per-hop store-and-forward / processing cost for messages.
  void set_hop_processing(Duration d) { hop_processing_ = d; }

  /// Mirrors message/flow activity into a metrics registry
  /// (c4h.net.msg.count, c4h.net.flow.count, c4h.net.flow.bytes).
  /// Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

 private:
  struct Flow {
    std::uint64_t id;
    std::vector<LinkId> links;
    double total;           // bytes
    double done = 0;        // bytes delivered
    TcpProfile profile;
    double jitter_mult = 1.0;
    Rate rate = 0;
    TimePoint last_update{};
    sim::EventId next_event;  // incremental / analytical only
    std::function<void()> on_complete;
  };

  std::uint64_t add_flow(const std::vector<LinkId>& links, Bytes size, TcpProfile profile,
                         std::function<void()> on_complete);
  void advance_progress();
  void recompute();

  // Shared helpers (all models).
  double flow_cap(const Flow& f) const;     // TCP/bottleneck/jitter rate cap
  Duration time_to_event(const Flow& f) const;  // to completion or phase boundary
  void advance_flow(Flow& f);               // credit progress at current rate
  void link_index_add(const Flow& f);
  void link_index_remove(const Flow& f);

  // incremental / analytical paths.
  void on_flow_event(std::uint64_t id);     // completion or TCP phase boundary
  void reschedule_flow(Flow& f);
  void apply_commit();                      // incremental: adopt engine rates
  void solve_analytical(const std::vector<LinkId>& links);
  Rate rate_analytical(const Flow& f) const;

  sim::Simulation& sim_;
  Topology topo_;
  Rng rng_;
  Duration hop_processing_ = microseconds(100);
  std::uint64_t next_flow_id_ = 1;
  // Ordered by id (= admission order), not hashed: recompute() iterates this
  // table to build the max-min solver's inputs and to accumulate per-link
  // loads, and floating-point summation order must not depend on hash-table
  // layout — determinism rule R3 (tools/c4h-lint).
  std::map<std::uint64_t, Flow> flows_;
  NetModel model_ = NetModel::global;
  sim::EventId next_event_;                  // global model: the one pending event
  MaxMinSolver solver_;                      // global model
  std::unique_ptr<FairShareEngine> engine_;  // incremental model only
  // Per-link index of in-flight flow ids, ascending (ids are monotone and
  // flows join at admission). Serves O(flows-on-link) link_load in every
  // model and the affected-set walk in the analytical one.
  std::vector<std::vector<std::uint64_t>> link_flows_;
  NetworkStats stats_;
  obs::Counter* m_msgs_ = nullptr;        // registered via set_metrics()
  obs::Counter* m_flows_ = nullptr;
  obs::Counter* m_flow_bytes_ = nullptr;
};

}  // namespace c4h::net
