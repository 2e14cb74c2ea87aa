#include "src/overlay/overlay.hpp"

#include <algorithm>

namespace c4h::overlay {

ChimeraNode& Overlay::create_node(const std::string& name, vmm::Host& host) {
  Key id = Key::from_name(name);
  // 40-bit space is large; collisions in a home cloud are vanishingly rare,
  // but perturb deterministically if one happens.
  int salt = 0;
  while (nodes_by_key_.contains(id)) {
    id = Key::from_name(name + "#" + std::to_string(++salt));
  }
  nodes_.push_back(std::make_unique<ChimeraNode>(id, name, host));
  ChimeraNode& n = *nodes_.back();
  nodes_by_key_.emplace(id, &n);
  return n;
}

sim::Task<Result<void>> Overlay::join(ChimeraNode& node, ChimeraNode* bootstrap) {
  if (bootstrap == nullptr) {
    node.host().set_online(true);
    node.set_in_ring(true);
    if (join_hook_) co_await join_hook_(node);
    co_return Result<void>{};
  }
  if (!bootstrap->online()) co_return Error{Errc::unavailable, "bootstrap offline"};
  node.host().set_online(true);
  node.set_in_ring(true);

  // Route a join request from the bootstrap toward the joiner's id, copying
  // state from each node on the path (Pastry-style: hop i contributes the
  // peers it knows; the final owner contributes its leaf set, which contains
  // the joiner's future ring neighbours).
  ChimeraNode* cur = bootstrap;
  int hops = 0;
  for (;;) {
    ++stats_.join_messages;
    // The joiner learns the hop and everything in the hop's leaf set.
    node.add_peer(cur->id(), PeerInfo{cur->net_node()});
    for (const Key k : cur->leaf_set()) {
      if (const ChimeraNode* p = node_by_key(k); p != nullptr) {
        node.add_peer(k, PeerInfo{p->net_node()});
      }
    }
    const Key next = cur->next_hop(node.id());
    if (next == cur->id()) break;
    ChimeraNode* nn = node_by_key(next);
    co_await net_.send_message(cur->net_node(), nn->net_node());
    co_await sim_.delay(config_.per_hop_processing);
    if (!nn->online()) {
      co_await sim_.delay(config_.probe_timeout);
      cur->remove_peer(next);
      continue;
    }
    cur = nn;
    if (++hops > config_.max_hops) co_return Error{Errc::no_route, "join exceeded max hops"};
  }

  co_await announce(node);
  if (join_hook_) co_await join_hook_(node);
  if (stabilizing_) sim_.spawn(stabilize_loop(node));
  co_return Result<void>{};
}

sim::Task<Result<void>> Overlay::restart(ChimeraNode& node, ChimeraNode* bootstrap) {
  node.forget_all_peers();
  ++stats_.restarts;
  co_return co_await join(node, bootstrap);
}

sim::Task<> Overlay::announce(ChimeraNode& joiner) {
  // "Whenever a node enters or exits, it sends a message to its right and
  // left nodes in the logical tree structure" — plus, at home-cloud scale,
  // every other peer it has learned of, so small overlays converge to full
  // membership immediately.
  for (const Key k : joiner.known_peers()) {
    ChimeraNode* p = node_by_key(k);
    if (p == nullptr || !p->online()) continue;
    ++stats_.join_messages;
    co_await net_.send_message(joiner.net_node(), p->net_node());
    p->add_peer(joiner.id(), PeerInfo{joiner.net_node()});
  }
}

sim::Task<> Overlay::leave(ChimeraNode& node) {
  if (leave_hook_) co_await leave_hook_(node);
  for (const Key k : node.known_peers()) {
    ChimeraNode* p = node_by_key(k);
    if (p == nullptr || !p->online()) continue;
    ++stats_.maintenance_messages;
    co_await net_.send_message(node.net_node(), p->net_node());
    p->remove_peer(node.id());
  }
  node.host().set_online(false);
  node.set_in_ring(false);
}

sim::Task<Result<RouteResult>> Overlay::route(ChimeraNode& origin, Key target,
                                              const std::function<bool(ChimeraNode&)>& stop_at,
                                              obs::Ctx ctx) {
  ++stats_.routes;
  obs::ScopedSpan sp(ctx, "overlay.route");
  RouteResult res;
  ChimeraNode* cur = &origin;
  if (!cur->online()) {
    sp.set_error("origin offline");
    co_return Error{Errc::unavailable, "origin offline"};
  }

  for (;;) {
    if (stop_at && cur != &origin && stop_at(*cur)) {
      res.owner = cur->id();
      stats_.route_hops += static_cast<std::uint64_t>(res.hops);
      sp.attr("hops", static_cast<std::uint64_t>(res.hops));
      co_return res;
    }
    const Key next = cur->next_hop(target);
    if (next == cur->id()) {
      res.owner = cur->id();
      stats_.route_hops += static_cast<std::uint64_t>(res.hops);
      sp.attr("hops", static_cast<std::uint64_t>(res.hops));
      co_return res;
    }
    ChimeraNode* nn = node_by_key(next);
    ++res.hops;
    ++stats_.route_hops;
    co_await net_.send_message(cur->net_node(), nn->net_node(), 50, sp.ctx());
    co_await sim_.delay(config_.per_hop_processing);
    if (!nn->online()) {
      // Next hop is dead: pay the probe timeout, drop it, try again.
      ++stats_.failures_detected;
      co_await sim_.delay(config_.probe_timeout);
      cur->remove_peer(next);
      continue;
    }
    if (res.hops > config_.max_hops) {
      sp.set_error("max hops");
      co_return Error{Errc::no_route, "route exceeded max hops"};
    }
    res.path.push_back(next);
    cur = nn;
  }
}

void Overlay::start_stabilization() {
  if (stabilizing_) return;
  stabilizing_ = true;
  for (auto& n : nodes_) {
    if (n->online()) sim_.spawn(stabilize_loop(*n));
  }
}

sim::Task<> Overlay::stabilize_loop(ChimeraNode& node) {
  // One loop per incarnation: after a crash the node's incarnation bumps,
  // this loop retires at its next tick, and the rejoin spawns a fresh one.
  const std::uint64_t inc = node.incarnation();
  for (;;) {
    co_await sim_.delay(config_.stabilize_period);
    if (!node.online() || node.incarnation() != inc) co_return;

    // Heartbeat the left/right ring neighbours.
    for (const auto neighbor : {node.right_neighbor(), node.left_neighbor()}) {
      if (!neighbor.has_value()) continue;
      ChimeraNode* p = node_by_key(*neighbor);
      if (p == nullptr) continue;
      ++stats_.maintenance_messages;
      co_await net_.send_message(node.net_node(), p->net_node());
      if (p->online()) continue;

      // No heartbeat ack: declare dead, repair membership everywhere we can
      // reach, then let the KV layer restore replica counts.
      ++stats_.failures_detected;
      co_await sim_.delay(config_.probe_timeout);
      // The probe took real time: the neighbour may have restarted and
      // rejoined while we waited. Declaring a live node dead would tear its
      // (valid, current) state out of the ring — skip; its rejoin already
      // repaired membership.
      if (p->online()) continue;
      const Key dead = p->id();
      remove_everywhere(dead);
      if (failure_hook_) co_await failure_hook_(dead);
    }
  }
}

void Overlay::remove_everywhere(Key dead) {
  // Dissemination of the failure notice (flood at home-cloud scale); the
  // messages are counted as maintenance traffic but applied synchronously —
  // the convergence delay that matters (detection) was already paid.
  for (auto& n : nodes_) {
    if (n->online() && n->knows(dead)) {
      ++stats_.maintenance_messages;
      n->remove_peer(dead);
    }
  }
}

std::vector<ChimeraNode*> Overlay::live_members() {
  std::vector<ChimeraNode*> out;
  for (auto& n : nodes_) {
    if (n->online() && n->in_ring()) out.push_back(n.get());
  }
  return out;
}

std::vector<Key> Overlay::successors_of(Key node, int r) {
  std::vector<Key>& live = live_scratch_;
  live.clear();
  for (auto& n : nodes_) {
    if (n->online() && n->in_ring() && n->id() != node) live.push_back(n->id());
  }
  // Only the r nearest need ordering. Node ids are distinct, so clockwise
  // distances are too and the partial sort picks what a full sort would.
  const std::size_t k = std::min(live.size(), static_cast<std::size_t>(r));
  std::partial_sort(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(k), live.end(),
                    [node](Key a, Key b) {
                      return node.clockwise_distance(a) < node.clockwise_distance(b);
                    });
  return std::vector<Key>(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(k));
}

Key Overlay::true_owner(Key key) {
  Key best{};
  std::uint64_t best_dist = UINT64_MAX;
  for (auto& n : nodes_) {
    if (!n->online() || !n->in_ring()) continue;
    const auto d = n->id().ring_distance(key);
    if (d < best_dist || (d == best_dist && n->id() < best)) {
      best = n->id();
      best_dist = d;
    }
  }
  return best;
}

}  // namespace c4h::overlay
