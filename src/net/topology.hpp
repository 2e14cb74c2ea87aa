// Network topology: nodes joined by directed links with a rate capacity,
// propagation latency, and (for WAN links) jitter parameters.
//
// The prototype's network (§V): a 95.5 Mbps home Ethernet LAN and a shared
// wireless/Internet uplink to the public cloud (~6.5 Mbps down / 4.5 Mbps up
// max, ~1.5 Mbps average). Higher layers build that shape with a switch node
// and a gateway node.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/common/units.hpp"

namespace c4h::net {

struct NetNodeId {
  std::uint32_t v = UINT32_MAX;
  bool valid() const { return v != UINT32_MAX; }
  friend bool operator==(NetNodeId a, NetNodeId b) { return a.v == b.v; }
};

using LinkId = std::uint32_t;

struct Link {
  NetNodeId from;
  NetNodeId to;
  Rate capacity = 0;          // bytes/sec
  Duration latency{};         // propagation delay
  double latency_jitter = 0;  // lognormal sigma applied per message
  double rate_jitter = 0;     // lognormal sigma applied per flow
};

/// Static topology with memoized lowest-latency routes.
///
/// A route is read off a shortest-path tree over latency, built in full the
/// first time a route leaves its root: strict-< relaxation over a
/// (distance, node id) min-heap. A node's predecessor is final once it is
/// popped, so each tree path is exactly the path an early-exit search for
/// that one destination would return. A node with a single out-link (a
/// host on its switch) reads the tree of that link's far end u: a search
/// from it settles itself, then continues as u's search with all distances
/// shifted by that link (integer nanoseconds, so no comparison changes), so
/// its path is that link followed by u's. One tree per hub therefore serves
/// every host behind it, at 4 bytes per node per tree. Resolved paths are
/// memoized per pair so route() can hand out stable references.
class Topology {
 public:
  NetNodeId add_node() {
    adjacency_.emplace_back();
    routes_dirty_ = true;
    return NetNodeId{static_cast<std::uint32_t>(adjacency_.size() - 1)};
  }

  /// Adds a unidirectional link.
  LinkId add_link(NetNodeId from, NetNodeId to, Rate capacity, Duration latency,
                  double latency_jitter = 0.0, double rate_jitter = 0.0) {
    assert(from.v < adjacency_.size() && to.v < adjacency_.size());
    const auto id = static_cast<LinkId>(links_.size());
    links_.push_back(Link{from, to, capacity, latency, latency_jitter, rate_jitter});
    adjacency_[from.v].push_back(id);
    routes_dirty_ = true;
    return id;
  }

  /// Adds a full-duplex link (two directed links); returns {fwd, rev}.
  std::pair<LinkId, LinkId> add_duplex(NetNodeId a, NetNodeId b, Rate capacity, Duration latency,
                                       double latency_jitter = 0.0, double rate_jitter = 0.0) {
    return {add_link(a, b, capacity, latency, latency_jitter, rate_jitter),
            add_link(b, a, capacity, latency, latency_jitter, rate_jitter)};
  }

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const Link& link(LinkId id) const { return links_.at(id); }

  /// Changes a link's nominal capacity at runtime (changing network
  /// conditions — a congested uplink, a throttled ISP). Routing is latency-
  /// based and unaffected; flow rates must be re-solved by the caller.
  void set_link_capacity(LinkId id, Rate capacity) { links_.at(id).capacity = capacity; }

  /// Lowest-latency path (sequence of link ids) from `src` to `dst`.
  /// Empty for src == dst; asserts a route exists otherwise.
  const std::vector<LinkId>& route(NetNodeId src, NetNodeId dst) const {
    const std::vector<LinkId>* p = find_route(src, dst);
    assert(p != nullptr && "no route between nodes");
    return *p;
  }

  bool has_route(NetNodeId src, NetNodeId dst) const { return find_route(src, dst) != nullptr; }

  /// Sum of link propagation latencies along the path.
  Duration path_latency(NetNodeId src, NetNodeId dst) const {
    Duration d{};
    for (const LinkId l : route(src, dst)) d += links_[l].latency;
    return d;
  }

 private:
  static constexpr LinkId kNoLink = UINT32_MAX;

  const std::vector<LinkId>* find_route(NetNodeId src, NetNodeId dst) const {
    if (routes_dirty_) {
      routes_.clear();
      trees_.clear();
      routes_dirty_ = false;
    }
    const auto key = (std::uint64_t{src.v} << 32) | dst.v;
    if (const auto it = routes_.find(key); it != routes_.end()) return &it->second;
    std::vector<LinkId> path;
    if (src.v != dst.v) {
      std::uint32_t root = src.v;
      if (adjacency_[src.v].size() == 1) {
        const LinkId up = adjacency_[src.v].front();
        path.push_back(up);
        root = links_[up].to.v;
      }
      const std::vector<LinkId>& via = tree(root);
      if (dst.v != root) {
        if (via[dst.v] == kNoLink) return nullptr;
        const auto head = static_cast<std::ptrdiff_t>(path.size());
        for (std::uint32_t cur = dst.v; cur != root; cur = links_[via[cur]].from.v) {
          path.push_back(via[cur]);
        }
        std::reverse(path.begin() + head, path.end());
      }
    }
    return &routes_.emplace(key, std::move(path)).first->second;
  }

  /// The shortest-path tree rooted at `root`: each node's last link on its
  /// path from the root, kNoLink for the root and unreachable nodes.
  const std::vector<LinkId>& tree(std::uint32_t root) const {
    const auto [it, fresh] = trees_.try_emplace(root);
    std::vector<LinkId>& via = it->second;
    if (!fresh) return via;
    const auto n = adjacency_.size();
    via.assign(n, kNoLink);
    std::vector<Duration> dist(n, Duration::max());
    using QE = std::pair<Duration, std::uint32_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    dist[root] = Duration::zero();
    pq.push({Duration::zero(), root});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const LinkId lid : adjacency_[u]) {
        const Link& l = links_[lid];
        const Duration nd = d + l.latency;
        if (nd < dist[l.to.v]) {
          dist[l.to.v] = nd;
          via[l.to.v] = lid;
          pq.push({nd, l.to.v});
        }
      }
    }
    return via;
  }

  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  mutable std::unordered_map<std::uint64_t, std::vector<LinkId>> routes_;
  mutable std::unordered_map<std::uint32_t, std::vector<LinkId>> trees_;  // by root
  mutable bool routes_dirty_ = false;
};

}  // namespace c4h::net
