// Deterministic traversal of unordered containers.
//
// Hash-table iteration order is an implementation detail: it varies across
// standard libraries, hasher seeds, and rehash points. When a loop over an
// unordered_map feeds anything observable — message emission order, placement
// decisions, floating-point accumulation — that detail leaks into simulation
// results and silently breaks byte-for-byte seed replay (the property
// tests/test_determinism.cpp guards and c4h-analyze rule D3 enforces).
//
// sorted_keys() snapshots a map's keys in sorted order so the caller can
// traverse deterministically; mutation of the map during traversal is safe
// because the snapshot is independent storage.
#pragma once

#include <algorithm>
#include <vector>

namespace c4h {

/// Keys of any map-like container, sorted ascending. O(n log n); intended for
/// membership-event paths (join/leave/repair), not per-message hot paths.
template <typename Map>
std::vector<typename Map::key_type> sorted_keys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& entry : m) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace c4h
