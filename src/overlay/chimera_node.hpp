// Per-node routing state of the Chimera-style structured overlay.
//
// Chimera [2] is a lightweight C implementation of prefix routing in the
// style of Tapestry/Pastry. Each node keeps:
//   * a "logical tree view of other nodes in the overlay, implemented as a
//     red-black tree" (§III-A) — a std::map of known peers, which libstdc++
//     implements as a red-black tree;
//   * a Pastry-style prefix routing table (one row per hex digit of the
//     40-bit key, one column per digit value);
//   * a leaf set (nearest ring neighbours on both sides), derived from the
//     tree view.
// next_hop() makes monotonic progress in ring distance, so routing always
// terminates, and terminates at the globally closest node whenever ring
// neighbours know each other (which join/leave/failure handling maintains).
#pragma once

#include <array>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/key.hpp"
#include "src/net/topology.hpp"
#include "src/vmm/machine.hpp"

namespace c4h::overlay {

struct PeerInfo {
  net::NetNodeId net;
};

class ChimeraNode {
 public:
  static constexpr int kLeafRadius = 4;  // leaf set = 4 on each side

  ChimeraNode(Key id, std::string name, vmm::Host& host)
      : id_(id), name_(std::move(name)), host_(&host) {
    for (auto& row : rtable_) row.fill(std::nullopt);
  }

  Key id() const { return id_; }
  const std::string& name() const { return name_; }
  vmm::Host& host() const { return *host_; }
  bool online() const { return host_->online(); }
  net::NetNodeId net_node() const { return host_->net_node(); }

  /// True once the node has joined the overlay ring and until it gracefully
  /// leaves. A created-but-unjoined node (or one that left) is an island:
  /// its host may be online, but it owns no part of the keyspace and must
  /// not be counted as a member. Crashes leave the flag set — a crashed
  /// member is still a member until failure detection removes it, and
  /// `online()` already excludes it from ownership.
  bool in_ring() const { return in_ring_; }
  void set_in_ring(bool v) { in_ring_ = v; }

  std::size_t peer_count() const { return peers_.size(); }
  bool knows(Key k) const { return peers_.contains(k); }

  /// Crash/restart generation counter. Bumped by Overlay::crash so stale
  /// per-incarnation processes (stabilization loops) can notice they belong
  /// to a previous life of the node and exit.
  std::uint64_t incarnation() const { return incarnation_; }
  void bump_incarnation() { ++incarnation_; }

  /// Drops all routing state (peers, routing table, leaf set). A restarting
  /// node rejoins the overlay from scratch.
  void forget_all_peers() {
    for (const Key k : known_peers()) remove_peer(k);
  }

  void add_peer(Key k, PeerInfo info) {
    if (k == id_) return;
    peers_.insert_or_assign(k, info);
    // Routing table slot: row = length of shared prefix, column = the
    // peer's digit at that position. First writer wins (Pastry keeps any
    // entry with the right prefix; proximity selection is out of scope).
    const int row = id_.shared_prefix_len(k);
    if (row < Key::kDigits) {
      auto& slot = rtable_[static_cast<std::size_t>(row)][k.digit(row)];
      if (!slot.has_value() || !peers_.contains(*slot)) slot = k;
    }
  }

  void remove_peer(Key k) {
    peers_.erase(k);
    const int row = id_.shared_prefix_len(k);
    if (row < Key::kDigits) {
      auto& slot = rtable_[static_cast<std::size_t>(row)][k.digit(row)];
      if (slot == k) slot = std::nullopt;
    }
  }

  /// All known peers, in key order.
  std::vector<Key> known_peers() const {
    std::vector<Key> out;
    out.reserve(peers_.size());
    for (const auto& [k, info] : peers_) out.push_back(k);
    return out;
  }

  /// Up to 2·kLeafRadius keys held inline: next_hop builds one per call, so
  /// it must not touch the heap.
  class LeafSet {
   public:
    static constexpr std::size_t kCapacity = 2 * kLeafRadius;

    void push_back(Key k) { keys_[size_++] = k; }
    const Key* begin() const { return keys_.data(); }
    const Key* end() const { return keys_.data() + size_; }
    std::size_t size() const { return size_; }

   private:
    std::array<Key, kCapacity> keys_{};
    std::size_t size_ = 0;
  };

  /// The leaf set: up to kLeafRadius ring neighbours on each side, from the
  /// tree view. With at most 2·kLeafRadius peers it is every peer, in key
  /// order; otherwise the clockwise neighbours nearest first, then the
  /// counter-clockwise ones.
  LeafSet leaf_set() const {
    LeafSet out;
    if (peers_.size() <= LeafSet::kCapacity) {
      for (const auto& [k, info] : peers_) out.push_back(k);
      return out;
    }

    // Clockwise: successors of id_ in key order, wrapping.
    const auto start = peers_.lower_bound(id_);
    auto cur = start;
    for (int i = 0; i < kLeafRadius; ++i) {
      if (cur == peers_.end()) cur = peers_.begin();
      out.push_back(cur->first);
      ++cur;
    }
    // Counter-clockwise: predecessors, wrapping.
    cur = start;
    for (int i = 0; i < kLeafRadius; ++i) {
      if (cur == peers_.begin()) cur = peers_.end();
      --cur;
      out.push_back(cur->first);
    }
    return out;
  }

  /// Ring neighbours: the immediate clockwise and counterclockwise peers
  /// ("a message to its right and left nodes in the logical tree").
  std::optional<Key> right_neighbor() const {
    if (peers_.empty()) return std::nullopt;
    const auto n = peers_.lower_bound(id_);
    return n != peers_.end() ? n->first : peers_.begin()->first;
  }
  std::optional<Key> left_neighbor() const {
    if (peers_.empty()) return std::nullopt;
    auto n = peers_.lower_bound(id_);
    if (n == peers_.begin()) n = peers_.end();
    return std::prev(n)->first;
  }

  /// Next hop toward `target`: prefix-routing with leaf-set shortcut and a
  /// numeric-progress fallback. Returns id() when this node is (as far as it
  /// knows) the owner.
  Key next_hop(Key target) const {
    if (peers_.empty() || target == id_) return id_;

    const std::uint64_t self_dist = id_.ring_distance(target);

    // Leaf-set shortcut: if a leaf (or we) is closest, deliver there.
    Key best = id_;
    std::uint64_t best_dist = self_dist;
    for (const Key l : leaf_set()) {
      const auto d = l.ring_distance(target);
      if (d < best_dist || (d == best_dist && l < best)) {
        best = l;
        best_dist = d;
      }
    }

    // Prefix routing: a peer sharing a strictly longer prefix with target.
    const int self_prefix = id_.shared_prefix_len(target);
    if (self_prefix < Key::kDigits) {
      const auto& slot =
          rtable_[static_cast<std::size_t>(self_prefix)][target.digit(self_prefix)];
      if (slot.has_value() && peers_.contains(*slot)) {
        const auto d = slot->ring_distance(target);
        if (d < best_dist) {
          best = *slot;
          best_dist = d;
        }
      }
    }

    if (best != id_ && best_dist < self_dist) return best;

    // Fallback: scan the tree view for any strictly closer node (rare; keeps
    // progress when the table is sparse).
    for (const auto& [k, info] : peers_) {
      const auto d = k.ring_distance(target);
      if (d < best_dist || (d == best_dist && k < best)) {
        best = k;
        best_dist = d;
      }
    }
    // Equidistant nodes (one on each side of the key) resolve to the smaller
    // id, matching the global owner definition; this also guarantees the
    // tie-forwarding step cannot cycle.
    if (best_dist < self_dist) return best;
    if (best_dist == self_dist && best < id_) return best;
    return id_;
  }

  const PeerInfo* peer(Key k) const {
    const auto n = peers_.find(k);
    return n != peers_.end() ? &n->second : nullptr;
  }

 private:
  Key id_;
  std::string name_;
  vmm::Host* host_;
  std::uint64_t incarnation_ = 0;
  bool in_ring_ = false;
  std::map<Key, PeerInfo> peers_;
  std::array<std::array<std::optional<Key>, 16>, Key::kDigits> rtable_;
};

}  // namespace c4h::overlay
