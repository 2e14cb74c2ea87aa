#include "src/net/network.hpp"

#include <algorithm>

#include "src/sim/fault.hpp"

namespace c4h::net {

namespace {
constexpr double kByteEps = 0.5;  // flows within half a byte of done are done
}

sim::Task<> Network::transfer(NetNodeId src, NetNodeId dst, Bytes size, TcpProfile profile,
                              obs::Ctx ctx) {
  ++stats_.flows_started;
  obs::ScopedSpan sp(ctx, "net.transfer");
  sp.attr("bytes", static_cast<std::uint64_t>(size));
  // Connection setup: handshake plus one-way path latency before data flows.
  const Duration setup = profile.handshake + sample_message_latency(src, dst, 0);
  co_await sim_.delay(setup);

  if (src == dst) {
    ++stats_.flows_completed;
    stats_.bytes_delivered += static_cast<double>(size);
    co_return;
  }

  const auto& path = topo_.route(src, dst);
  sim::Event done{sim_};
  add_flow(path, size, profile, done);
  co_await done.wait();
  ++stats_.flows_completed;
  stats_.bytes_delivered += static_cast<double>(size);
}

sim::Task<> Network::transfer_striped(NetNodeId src, NetNodeId dst, Bytes size,
                                      TcpProfile profile, int streams, obs::Ctx ctx) {
  if (streams <= 1 || size == 0) {
    co_await transfer(src, dst, size, profile, ctx);
    co_return;
  }
  obs::ScopedSpan sp(ctx, "net.transfer_striped");
  sp.attr("bytes", static_cast<std::uint64_t>(size));
  sp.attr("streams", static_cast<std::uint64_t>(streams));
  const auto n = static_cast<Bytes>(streams);
  const Bytes base = size / n;
  std::vector<sim::Task<>> stripes;
  stripes.reserve(static_cast<std::size_t>(streams));
  for (Bytes i = 0; i < n; ++i) {
    const Bytes stripe = base + (i == 0 ? size % n : 0);  // remainder on stripe 0
    // Each stripe restarts slow start and is policed independently: the
    // per-flow phase thresholds apply to the (smaller) stripe, which is
    // precisely why striping helps window/policing-limited paths.
    stripes.push_back(transfer(src, dst, stripe, profile, sp.ctx()));
  }
  sim::Simulation& s = sim_;
  co_await sim::when_all(s, std::move(stripes));
}

sim::Task<> Network::send_message(NetNodeId src, NetNodeId dst, Bytes size, obs::Ctx ctx) {
  // (await in a declaration, not the loop condition: GCC 12 miscompiles
  // co_await of a temporary task inside a loop condition)
  for (;;) {
    const bool delivered = co_await try_send_message(src, dst, size, ctx);
    if (delivered) co_return;
    ++stats_.retransmits;
  }
}

sim::Task<bool> Network::try_send_message(NetNodeId src, NetNodeId dst, Bytes size,
                                          obs::Ctx ctx) {
  ++stats_.messages_sent;
  obs::ScopedSpan sp(ctx, "net.msg");
  sp.attr("bytes", static_cast<std::uint64_t>(size));
  Duration lat = sample_message_latency(src, dst, size);
  if (sim::FaultPlan* fp = sim_.fault(); fp != nullptr && src != dst) {
    const sim::MessageFault f = fp->message_fault();
    if (f.drop) {
      // The message dies in flight; the sender only learns from its
      // retransmit timer.
      sp.set_error("dropped");
      co_await sim_.delay(fp->spec().loss_detection);
      co_return false;
    }
    if (f.duplicate) ++stats_.messages_sent;  // the copy costs traffic only
    lat += f.extra_delay;
  }
  co_await sim_.delay(lat);
  co_return true;
}

Duration Network::sample_message_latency(NetNodeId src, NetNodeId dst, Bytes size) {
  if (src == dst) return hop_processing_;
  Duration lat{};
  for (const LinkId lid : topo_.route(src, dst)) {
    const Link& l = topo_.link(lid);
    double mult = 1.0;
    if (l.latency_jitter > 0) {
      mult = std::clamp(rng_.lognormal_mean(1.0, l.latency_jitter), 0.2, 8.0);
    }
    lat += from_seconds(to_seconds(l.latency) * mult);
    lat += hop_processing_;
    // Serialization of the message itself; negligible for command packets
    // but kept for correctness on slow links.
    if (size > 0 && l.capacity > 0) lat += transfer_time(size, l.capacity);
  }
  return lat;
}

void Network::set_link_capacity(LinkId link, Rate capacity) {
  topo_.set_link_capacity(link, capacity);
  // Flows whose bottleneck this was must slow down (or speed up) from this
  // instant; recompute() first credits everyone's progress at the old rates.
  recompute();
}

double Network::flow_cap(const Flow& f) const {
  // The phase fraction (slow start / policing) and the jitter multiplier
  // scale whichever constraint binds for this flow — the TCP window or the
  // bottleneck link's nominal rate — so both shape the throughput even on
  // window-unconstrained paths. The bottleneck is re-read every solve so
  // runtime capacity changes take effect on in-flight flows.
  Rate bottleneck = std::numeric_limits<Rate>::infinity();
  for (const LinkId lid : f.links) {
    bottleneck = std::min(bottleneck, topo_.link(lid).capacity);
  }
  return std::min(f.profile.steady_rate(), bottleneck) *
         f.profile.phase_fraction(static_cast<Bytes>(f.done)) * f.jitter_mult;
}

void Network::add_flow(const std::vector<LinkId>& links, Bytes size, TcpProfile profile,
                       sim::Event& completion) {
  Flow f;
  f.links = links;
  f.total = static_cast<double>(size);
  f.profile = profile;
  f.last_update = sim_.now();
  f.completion = &completion;
  // Per-flow WAN variability: one multiplier for the flow's lifetime, drawn
  // from the most variable link on the path. Link capacities are nominal
  // *average* bandwidth; the multiplier models the burst/lull a given flow
  // actually experiences (the paper's uplink: ~1.5 Mbps average, bursts to
  // several times that).
  double sigma = 0;
  for (const LinkId lid : links) {
    sigma = std::max(sigma, topo_.link(lid).rate_jitter);
  }
  if (sigma > 0) f.jitter_mult = std::clamp(rng_.lognormal_mean(1.0, sigma), 0.25, 3.0);
  flows_.emplace(next_flow_id_++, std::move(f));
  recompute();
}

Duration Network::time_to_event(const Flow& f) const {
  double bytes_to_event = f.total - f.done;
  if (const auto b = f.profile.next_phase_boundary(static_cast<Bytes>(f.done))) {
    bytes_to_event = std::min(bytes_to_event, static_cast<double>(*b) - f.done);
  }
  return from_seconds(std::max(bytes_to_event, 0.0) / f.rate);
}

void Network::recompute() {
  // Credit every flow's progress at the rate it ran since its last update,
  // then retire the finished ones.
  const TimePoint now = sim_.now();
  std::vector<sim::Event*> completed;
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    const double elapsed = to_seconds(now - f.last_update);
    if (elapsed > 0) f.done = std::min(f.total, f.done + elapsed * f.rate);
    f.last_update = now;
    if (f.total - f.done <= kByteEps) {
      completed.push_back(f.completion);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }

  // Solve max-min rates for the remaining flows, ascending id.
  solver_.clear();
  for (const auto& [id, f] : flows_) solver_.add_flow(f.links, flow_cap(f));
  solver_.solve([this](LinkId l) { return topo_.link(l).capacity; });

  // The next network event: the earliest completion or TCP phase boundary.
  Duration next = Duration::max();
  std::size_t i = 0;
  for (auto& [id, f] : flows_) {
    f.rate = solver_.rate(i++);
    if (f.rate <= 0) continue;  // parked until some other event frees capacity
    next = std::min(next, time_to_event(f));
  }
  sim_.cancel(next_event_);
  if (next != Duration::max()) next_event_ = sim_.schedule(next, [this] { recompute(); });

  // Completions fire last. Event::fire only schedules each waiter's
  // resumption, so nothing re-enters recompute(); firing after the next flow
  // event is scheduled keeps the queue's (timestamp, seq) order.
  for (sim::Event* e : completed) e->fire();
}

}  // namespace c4h::net
