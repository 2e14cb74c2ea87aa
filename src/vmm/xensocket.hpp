// XenSocket-style shared-memory inter-domain transport.
//
// The prototype moves data between a guest VM and the VStore++ control
// domain over XenSocket [Zhang et al., Middleware'07]: the receiver
// allocates a ring of granted pages (thirty-two 4 KB pages by default; up to
// 2 MB pages on large-memory devices) and exchanges a descriptor page +
// grant-table reference before streaming. We model the two costs that show
// up in Table I's "inter domain" column: a fixed setup cost (descriptor
// page + grant references) and a per-byte streaming cost whose rate grows
// sub-linearly with the ring size.
#pragma once

#include <cmath>

#include "src/common/units.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/task.hpp"

namespace c4h::vmm {

struct XenSocketConfig {
  std::size_t pages = 32;
  Bytes page_size = 4_KB;
  // Streaming rate with the default 32 × 4 KB = 128 KB ring, fitted to the
  // paper's inter-domain costs (≈62 MB/s on the Atom testbed).
  Rate base_rate = mib_per_sec(62.0);
  Bytes base_ring = 128_KB;
  Duration setup = milliseconds(9);  // descriptor page + grant table exchange

  Bytes ring_bytes() const { return pages * page_size; }

  /// Effective streaming rate: doubling the ring does not double throughput
  /// (copies still cost CPU); square-root scaling, capped at 4x base.
  Rate rate() const {
    const double scale =
        std::sqrt(static_cast<double>(ring_bytes()) / static_cast<double>(base_ring));
    return base_rate * std::min(4.0, std::max(0.25, scale));
  }
};

/// One guest↔dom0 channel. Transfers are full-duplex and independent per
/// channel (shared-memory copies, not a shared bus).
class XenSocketChannel {
 public:
  XenSocketChannel(sim::Simulation& sim, XenSocketConfig config = {})
      : sim_(sim), config_(config) {}

  const XenSocketConfig& config() const { return config_; }

  /// Moves `size` bytes across the domain boundary (either direction).
  [[nodiscard]] sim::Delay transfer(Bytes size) {
    ++transfers_;
    bytes_moved_ += size;
    return sim_.delay(transfer_time_for(size));
  }

  /// Cost model exposed for placement decisions and tests.
  Duration transfer_time_for(Bytes size) const {
    return config_.setup + c4h::transfer_time(size, config_.rate());
  }

  std::uint64_t transfers() const { return transfers_; }
  Bytes bytes_moved() const { return bytes_moved_; }

 private:
  sim::Simulation& sim_;
  XenSocketConfig config_;
  std::uint64_t transfers_ = 0;
  Bytes bytes_moved_ = 0;
};

}  // namespace c4h::vmm
