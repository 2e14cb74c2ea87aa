// Max-min fair bandwidth allocation with per-flow rate caps
// (progressive filling / water-filling).
//
// Given link capacities and the set of links each flow traverses, computes
// the classic max-min fair allocation: rates are raised together until a
// link saturates or a flow hits its own cap; saturated flows freeze and the
// rest continue. This is the standard flow-level model of TCP bandwidth
// sharing on a shared bottleneck (home LAN vs the thin cloud uplink).
//
// MaxMinSolver is the one water-filling in the simulator: Network re-solves
// every in-flight flow with it on each network event, and vmm::Host shares a
// CPU among its jobs with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/units.hpp"

namespace c4h::net {

/// Progressive filling, allocation-free once its scratch has grown.
///
/// Usage: clear(), add_flow() once per flow, solve(), then rate(i) for the
/// i-th added flow. Each round raises every unfrozen flow by one increment:
/// the minimum of (capacity − used) / unfrozen-count over loaded links in
/// ascending id, then of (cap − rate) over unfrozen flows in add order,
/// clamped at 0. Then every unfrozen flow that reached its cap (within
/// 1e-7) or crosses a link within 1e-7 of capacity freezes.
///
/// Rounds visit only unfrozen flows and still-loaded links, and per-link
/// unfrozen counts are decremented on freeze instead of recounted. The
/// minimum is still taken over the same values in the same order, and each
/// link's `used` receives the same additions in the same order, so every
/// rate is bitwise the textbook loop's over all flows and all links (the
/// loop tests/test_fairshare.cpp keeps as its oracle).
class MaxMinSolver {
 public:
  void clear() { flows_.clear(); }

  /// Appends a flow over `links` (ids the capacity function accepts). An
  /// empty list is loopback, rated at its own cap. The list is read in
  /// place by solve(), so it must stay alive and unchanged until then.
  void add_flow(std::span<const std::uint32_t> links, Rate cap) { flows_.push_back({links, cap}); }

  /// Rate of the i-th added flow after solve().
  Rate rate(std::size_t i) const { return rate_[i]; }

  /// Solves the added flows; `capacity(l)` returns link l's capacity and is
  /// called once per distinct loaded link.
  template <typename CapacityOf>
  void solve(CapacityOf&& capacity) {
    const std::size_t nf = flows_.size();
    rate_.assign(nf, 0.0);
    unfrozen_.clear();
    loaded_.clear();
    for (std::size_t f = 0; f < nf; ++f) {
      const Flow& fl = flows_[f];
      if (fl.links.empty()) {  // loopback: bounded only by its own cap
        rate_[f] = fl.cap;
        continue;
      }
      unfrozen_.push_back(static_cast<std::uint32_t>(f));
      for (const std::uint32_t l : fl.links) {
        if (l >= active_.size()) {
          active_.resize(l + 1, 0);
          used_.resize(l + 1);
          capacity_.resize(l + 1);
        }
        if (active_[l]++ == 0) {
          loaded_.push_back(l);
          used_[l] = 0.0;
          capacity_[l] = capacity(l);
        }
      }
    }
    std::sort(loaded_.begin(), loaded_.end());

    constexpr double kEps = 1e-7;
    while (!unfrozen_.empty()) {
      double increment = std::numeric_limits<double>::infinity();
      for (const std::uint32_t l : loaded_) {
        increment = std::min(increment, (capacity_[l] - used_[l]) / active_[l]);
      }
      for (const std::uint32_t f : unfrozen_) {
        increment = std::min(increment, flows_[f].cap - rate_[f]);
      }
      if (increment < 0) increment = 0;

      for (const std::uint32_t f : unfrozen_) {
        rate_[f] += increment;
        for (const std::uint32_t l : flows_[f].links) used_[l] += increment;
      }

      std::size_t kept = 0;
      for (const std::uint32_t f : unfrozen_) {
        const Flow& fl = flows_[f];
        bool saturated = rate_[f] >= fl.cap - kEps;
        for (const std::uint32_t l : fl.links) {
          if (used_[l] >= capacity_[l] - kEps) saturated = true;
        }
        if (saturated) {
          for (const std::uint32_t l : fl.links) --active_[l];
        } else {
          unfrozen_[kept++] = f;
        }
      }
      if (kept == unfrozen_.size()) break;  // numerical safety; should not happen
      unfrozen_.resize(kept);
      std::erase_if(loaded_, [this](std::uint32_t l) { return active_[l] == 0; });
    }
    for (const std::uint32_t l : loaded_) active_[l] = 0;  // non-empty only after the safety break
  }

 private:
  struct Flow {
    std::span<const std::uint32_t> links;
    Rate cap;
  };

  std::vector<Flow> flows_;
  std::vector<Rate> rate_;
  std::vector<std::uint32_t> unfrozen_;  // flow indices, ascending
  std::vector<std::uint32_t> loaded_;    // links with unfrozen flows, ascending
  // Indexed by link id. active_ is all zero between solves; used_ and
  // capacity_ are only read for links in loaded_.
  std::vector<std::uint32_t> active_;
  std::vector<Rate> used_;
  std::vector<Rate> capacity_;
};

}  // namespace c4h::net
