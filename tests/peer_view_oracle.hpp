// Sorted-vector oracle for ChimeraNode's tree view of its peers: known
// peers, ring neighbours and the leaf set by index arithmetic over the
// sorted peer keys, with no tree walk to share a bug with the node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/overlay/chimera_node.hpp"

namespace c4h::overlay::oracle {

/// What known_peers() must return: `peers` without `id`, sorted, each once.
inline std::vector<Key> sorted_peers(Key id, std::vector<Key> peers) {
  std::erase(peers, id);
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  return peers;
}

/// Index in `ring` (sorted, without `id`) of the first key clockwise of
/// `id`; ring.size() when `id` is past every key.
inline std::size_t clockwise_start(Key id, const std::vector<Key>& ring) {
  return static_cast<std::size_t>(std::lower_bound(ring.begin(), ring.end(), id) -
                                  ring.begin());
}

/// What leaf_set() must return: every peer when there are at most
/// 2·kLeafRadius, else the kLeafRadius clockwise successors of `id`, nearest
/// first, then the kLeafRadius counter-clockwise predecessors, both wrapping.
inline std::vector<Key> leaf_set(Key id, const std::vector<Key>& peers) {
  constexpr auto kRadius = static_cast<std::size_t>(ChimeraNode::kLeafRadius);
  const std::vector<Key> ring = sorted_peers(id, peers);
  const std::size_t n = ring.size();
  if (n <= 2 * kRadius) return ring;
  const std::size_t start = clockwise_start(id, ring);
  std::vector<Key> out;
  for (std::size_t i = 0; i < kRadius; ++i) out.push_back(ring[(start + i) % n]);
  for (std::size_t i = 1; i <= kRadius; ++i) out.push_back(ring[(start + n - i) % n]);
  return out;
}

}  // namespace c4h::overlay::oracle
