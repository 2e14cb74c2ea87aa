// The 40-bit key space of the VStore++ metadata layer.
//
// Keys identify objects (hash of object name), services (hash of service
// name ++ service id) and nodes (hash of the node's address), so that one
// key-value store holds all three kinds of entries (§III-A).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/sha1.hpp"

namespace c4h {

/// A 40-bit identifier in the Chimera overlay key space, stored in the low
/// 40 bits of a 64-bit integer. Ten hex digits when printed.
class Key {
 public:
  static constexpr int kBits = 40;
  static constexpr int kDigits = 10;  // hex digits (4 bits each)
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;

  constexpr Key() = default;
  constexpr explicit Key(std::uint64_t raw) : v_(raw & kMask) {}

  /// Derives a key by hashing a name with SHA-1 and truncating to 40 bits.
  /// Each store or fetch attempt hashes its object's name, and workloads
  /// return to the same objects, so results are memoized: a fixed table of
  /// kMemoSlots slots, direct-mapped by `std::hash` of the name, each holding
  /// one name and its key. A slot is used only when its stored name equals
  /// `name`. The table is process-wide and unsynchronized, like the coroutine
  /// frame pool (the simulator is single-threaded), and its contents never
  /// change a result.
  static Key from_name(std::string_view name);
  /// Four slots per name of city_fetch's working set (32 homes × 32
  /// objects, every name reused), of which a direct-mapped table keeps about
  /// 88% resident. DESIGN.md §13 gives each perfbench workload's hit rate by
  /// slot count.
  static constexpr std::size_t kMemoSlots = 4096;

  constexpr std::uint64_t raw() const { return v_; }

  /// The i-th hex digit, counting from the most significant (digit 0).
  constexpr unsigned digit(int i) const {
    return static_cast<unsigned>((v_ >> (4 * (kDigits - 1 - i))) & 0xF);
  }

  /// Number of leading hex digits shared with `other` (0..kDigits).
  constexpr int shared_prefix_len(Key other) const {
    for (int i = 0; i < kDigits; ++i) {
      if (digit(i) != other.digit(i)) return i;
    }
    return kDigits;
  }

  /// Circular distance in the key ring (minimum of the two directions).
  constexpr std::uint64_t ring_distance(Key other) const {
    const std::uint64_t fwd = (other.v_ - v_) & kMask;
    const std::uint64_t bwd = (v_ - other.v_) & kMask;
    return fwd < bwd ? fwd : bwd;
  }

  /// Clockwise (increasing) distance from this key to `other` on the ring.
  constexpr std::uint64_t clockwise_distance(Key other) const {
    return (other.v_ - v_) & kMask;
  }

  friend constexpr auto operator<=>(Key a, Key b) = default;

  std::string to_string() const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string s(kDigits, '0');
    for (int i = 0; i < kDigits; ++i) s[static_cast<std::size_t>(i)] = kHex[digit(i)];
    return s;
  }

 private:
  std::uint64_t v_ = 0;
};

}  // namespace c4h

template <>
struct std::hash<c4h::Key> {
  std::size_t operator()(c4h::Key k) const noexcept {
    return std::hash<std::uint64_t>{}(k.raw());
  }
};
