#include "src/net/network.hpp"

#include <algorithm>
#include <cassert>

#include "src/sim/fault.hpp"

namespace c4h::net {

namespace {
constexpr double kByteEps = 0.5;  // flows within half a byte of done are done
}

sim::Task<> Network::transfer(NetNodeId src, NetNodeId dst, Bytes size, TcpProfile profile,
                              obs::Ctx ctx) {
  ++stats_.flows_started;
  if (m_flows_ != nullptr) {
    m_flows_->add();
    m_flow_bytes_->add(size);
  }
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
  add_flow(path, size, profile, [&done] { done.fire(); });
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
  if (m_msgs_ != nullptr) m_msgs_->add();
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

void Network::set_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    m_msgs_ = nullptr;
    m_flows_ = nullptr;
    m_flow_bytes_ = nullptr;
    return;
  }
  m_msgs_ = &registry->counter("c4h.net.msg.count");
  m_flows_ = &registry->counter("c4h.net.flow.count");
  m_flow_bytes_ = &registry->counter("c4h.net.flow.bytes");
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

void Network::set_model(NetModel m) {
  assert(flows_.empty() && "set_model must precede flow admission");
  model_ = m;
  engine_.reset();
  if (m == NetModel::incremental) {
    std::vector<Rate> caps(topo_.link_count());
    for (LinkId l = 0; l < caps.size(); ++l) caps[l] = topo_.link(l).capacity;
    engine_ = std::make_unique<FairShareEngine>(std::move(caps));
  }
}

void Network::set_link_capacity(LinkId link, Rate capacity) {
  topo_.set_link_capacity(link, capacity);
  switch (model_) {
    case NetModel::global:
      // Flows whose bottleneck this was must slow down (or speed up) from
      // this instant; recompute() first credits everyone's progress at the
      // old rates.
      recompute();
      break;
    case NetModel::incremental:
      engine_->set_link_capacity(link, capacity);
      // Flow caps derived from this link's nominal rate (the bottleneck
      // term) change with it; refresh them against freshly credited
      // progress before the component re-solve.
      if (link < link_flows_.size()) {
        for (const std::uint64_t id : link_flows_[link]) {
          Flow& f = flows_.at(id);
          advance_flow(f);
          engine_->set_flow_cap(id, flow_cap(f));
        }
      }
      apply_commit();
      break;
    case NetModel::analytical:
      solve_analytical({link});
      break;
  }
}

Rate Network::link_load(LinkId link) const {
  Rate r = 0;
  if (link < link_flows_.size()) {
    for (const std::uint64_t id : link_flows_[link]) r += flows_.at(id).rate;
  }
  return r;
}

void Network::link_index_add(const Flow& f) {
  for (const LinkId l : f.links) {
    if (l >= link_flows_.size()) link_flows_.resize(l + 1);
    link_flows_[l].push_back(f.id);  // ids are monotone, so this stays sorted
  }
}

void Network::link_index_remove(const Flow& f) {
  for (const LinkId l : f.links) {
    auto& v = link_flows_[l];
    v.erase(std::lower_bound(v.begin(), v.end(), f.id));
  }
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

std::uint64_t Network::add_flow(const std::vector<LinkId>& links, Bytes size, TcpProfile profile,
                                std::function<void()> on_complete) {
  const std::uint64_t id = next_flow_id_++;
  Flow f;
  f.id = id;
  f.links = links;
  f.total = static_cast<double>(size);
  f.profile = profile;
  f.last_update = sim_.now();
  f.on_complete = std::move(on_complete);
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
  const auto it = flows_.emplace(id, std::move(f)).first;
  link_index_add(it->second);
  switch (model_) {
    case NetModel::global:
      recompute();
      break;
    case NetModel::incremental:
      engine_->add_flow(id, it->second.links, flow_cap(it->second));
      apply_commit();
      break;
    case NetModel::analytical:
      solve_analytical(it->second.links);
      break;
  }
  return id;
}

void Network::advance_flow(Flow& f) {
  const TimePoint now = sim_.now();
  const double elapsed = to_seconds(now - f.last_update);
  if (elapsed > 0) f.done = std::min(f.total, f.done + elapsed * f.rate);
  f.last_update = now;
}

void Network::advance_progress() {
  for (auto& [id, f] : flows_) advance_flow(f);
}

Duration Network::time_to_event(const Flow& f) const {
  double bytes_to_event = f.total - f.done;
  if (const auto b = f.profile.next_phase_boundary(static_cast<Bytes>(f.done))) {
    bytes_to_event = std::min(bytes_to_event, static_cast<double>(*b) - f.done);
  }
  return from_seconds(std::max(bytes_to_event, 0.0) / f.rate);
}

void Network::recompute() {
  advance_progress();

  // Retire completed flows (their completion callbacks may start new
  // transfers synchronously; those re-enter recompute via add_flow, so
  // collect callbacks first).
  std::vector<std::function<void()>> completed;
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    if (f.total - f.done <= kByteEps) {
      completed.push_back(std::move(f.on_complete));
      link_index_remove(f);
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

  for (auto& cb : completed) cb();
}

// ---- incremental / analytical fast paths -----------------------------------
//
// The global model above pays O(total flows) per network event. The fast
// paths pay O(affected component): each flow schedules its *own* next event
// (completion or TCP phase boundary) and, when it fires, only the flows
// whose rates can actually change — those sharing links, transitively for
// the incremental solver, one hop for the analytical one — are advanced and
// re-rated. Unaffected flows keep running at their piecewise-constant rates
// with stale `done`/`last_update`, which advance_flow() settles lazily the
// next time they are touched.

void Network::reschedule_flow(Flow& f) {
  sim_.cancel(f.next_event);
  f.next_event = {};
  if (f.rate <= 0) return;  // parked until some other event frees capacity
  const std::uint64_t id = f.id;
  f.next_event = sim_.schedule(time_to_event(f), [this, id] { on_flow_event(id); });
}

void Network::apply_commit() {
  // Affected flows change rate *now*: credit progress at the old rate
  // first, then adopt the engine's new rate and reschedule. A re-rated flow
  // may just have crossed a TCP phase boundary whose own event this
  // reschedule cancels, so its cap is refreshed here and, if it moved,
  // the component is solved again.
  for (bool recapped = true; recapped;) {
    recapped = false;
    for (const std::uint64_t id : engine_->commit()) {
      Flow& f = flows_.at(id);
      advance_flow(f);
      f.rate = engine_->rate(id);
      if (const Rate cap = flow_cap(f); cap != engine_->flow_cap(id)) {
        engine_->set_flow_cap(id, cap);
        recapped = true;
      }
      reschedule_flow(f);
    }
  }
}

Rate Network::rate_analytical(const Flow& f) const {
  Rate r = flow_cap(f);
  for (const LinkId l : f.links) {
    r = std::min(r, topo_.link(l).capacity / static_cast<double>(link_flows_[l].size()));
  }
  return r;
}

void Network::solve_analytical(const std::vector<LinkId>& links) {
  // One-hop affected set: in the closed form a flow's rate depends only on
  // its own links' capacities and flow counts, so effects don't propagate
  // beyond the flows sharing a changed link.
  std::vector<std::uint64_t> affected;
  for (const LinkId l : links) {
    if (l < link_flows_.size()) {
      affected.insert(affected.end(), link_flows_[l].begin(), link_flows_[l].end());
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
  for (const std::uint64_t id : affected) {
    Flow& f = flows_.at(id);
    advance_flow(f);
    f.rate = rate_analytical(f);
    reschedule_flow(f);
  }
}

void Network::on_flow_event(std::uint64_t id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;  // defensive; cancellation should prevent this
  Flow& f = it->second;
  advance_flow(f);

  if (f.total - f.done <= kByteEps) {
    // Completion: retire first (the callback may start new transfers
    // synchronously, re-entering add_flow), then re-rate the survivors.
    link_index_remove(f);
    std::function<void()> done_cb = std::move(f.on_complete);
    const std::vector<LinkId> links = std::move(f.links);
    flows_.erase(it);
    if (model_ == NetModel::incremental) {
      engine_->remove_flow(id);
      apply_commit();
    } else {
      solve_analytical(links);
    }
    if (done_cb) done_cb();
    return;
  }

  // TCP phase boundary: only this flow's cap changed.
  if (model_ == NetModel::incremental) {
    engine_->set_flow_cap(id, flow_cap(f));
    apply_commit();
  } else {
    f.rate = rate_analytical(f);
    reschedule_flow(f);
  }
}

}  // namespace c4h::net
