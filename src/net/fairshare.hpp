// Max-min fair bandwidth allocation with per-flow rate caps
// (progressive filling / water-filling).
//
// Given link capacities and the set of links each flow traverses, computes
// the classic max-min fair allocation: rates are raised together until a
// link saturates or a flow hits its own cap; saturated flows freeze and the
// rest continue. This is the standard flow-level model of TCP bandwidth
// sharing on a shared bottleneck (home LAN vs the thin cloud uplink).
//
// Two pieces live here:
//
//  * MaxMinSolver — the one water-filling in the simulator. Network's
//    default (`NetModel::global`) re-solves every flow with it on each
//    network event, vmm::Host shares a CPU with it, and FairShareEngine runs
//    it over one conflict-graph component.
//
//  * FairShareEngine — the incremental driver. It keeps per-link flow sets
//    and, on a flow add/remove/cap change or a link capacity change,
//    re-solves only the *affected connected component* of the flow–link
//    conflict graph: flows that share no link (directly or transitively)
//    with the change keep their rates untouched. For the home-cloud star
//    topologies most components are a handful of flows, so an event costs
//    O(component) instead of O(flows × links).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
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

/// Incremental max-min fair-share solver over the flow–link conflict graph.
///
/// Usage: mutate (add_flow / remove_flow / set_flow_cap / set_link_capacity,
/// any number of them), then commit(). commit() gathers the connected
/// component(s) reachable from the dirtied links, water-fills them with
/// MaxMinSolver, and returns the ids (ascending) whose rates were
/// re-solved. Everything outside those components is untouched — that is
/// the whole point.
///
/// Determinism: flows are kept per-link in ascending-id vectors and the
/// solver sees the component's flows by ascending id, so same inputs ⇒ same
/// floating-point operation order ⇒ same rates.
class FairShareEngine {
 public:
  explicit FairShareEngine(std::vector<Rate> link_capacity)
      : caps_(std::move(link_capacity)), link_flows_(caps_.size()), link_mark_(caps_.size(), 0) {}

  std::size_t flow_count() const { return flows_.size(); }

  /// Flows on `link`, ascending id — serves O(flows-on-link) link_load.
  const std::vector<std::uint64_t>& flows_on_link(std::uint32_t link) const {
    return link_flows_[link];
  }

  Rate rate(std::uint64_t id) const { return flows_.at(id).rate; }
  Rate flow_cap(std::uint64_t id) const { return flows_.at(id).cap; }

  /// `links` must be valid indices into the capacity vector. Loopback flows
  /// (empty link list) are rated at their cap immediately and never join a
  /// component.
  void add_flow(std::uint64_t id, const std::vector<std::uint32_t>& links, Rate cap) {
    assert(!flows_.contains(id));
    EFlow f;
    f.links = links;
    f.cap = cap;
    f.rate = links.empty() ? cap : 0.0;
    for (const std::uint32_t l : links) {
      // Ids are handed out monotonically by Network, so push_back keeps the
      // per-link vectors sorted; assert it to keep other callers honest.
      assert(link_flows_[l].empty() || link_flows_[l].back() < id);
      link_flows_[l].push_back(id);
      dirty_links_.push_back(l);
    }
    flows_.emplace(id, std::move(f));
  }

  void remove_flow(std::uint64_t id) {
    const auto it = flows_.find(id);
    assert(it != flows_.end());
    for (const std::uint32_t l : it->second.links) {
      auto& v = link_flows_[l];
      v.erase(std::lower_bound(v.begin(), v.end(), id));
      dirty_links_.push_back(l);
    }
    flows_.erase(it);
  }

  /// A flow's cap changes at its TCP phase boundaries (slow start → steady,
  /// policing) — same component machinery as a topology change.
  void set_flow_cap(std::uint64_t id, Rate cap) {
    EFlow& f = flows_.at(id);
    if (f.cap == cap) return;
    f.cap = cap;
    if (f.links.empty()) {
      f.rate = cap;
      return;
    }
    for (const std::uint32_t l : f.links) dirty_links_.push_back(l);
  }

  void set_link_capacity(std::uint32_t link, Rate capacity) {
    if (caps_[link] == capacity) return;
    caps_[link] = capacity;
    dirty_links_.push_back(link);
  }

  /// Re-solves the affected component(s). Returns the ids (ascending,
  /// deduplicated) whose rates were re-solved; the vector is owned by the
  /// engine and valid until the next commit(). No dirty links ⇒ empty.
  const std::vector<std::uint64_t>& commit() {
    affected_.clear();
    if (dirty_links_.empty()) return affected_;

    // Flood the conflict graph from the dirty links: a link pulls in its
    // flows, a flow pulls in its links. Marks are monotone epochs so no
    // per-commit clearing is needed.
    ++epoch_;
    for (const std::uint32_t l : dirty_links_) visit_link(l);
    dirty_links_.clear();
    // BFS worklist: affected_ doubles as the flow queue (it only grows).
    for (std::size_t i = 0; i < affected_.size(); ++i) {
      for (const std::uint32_t l : flows_.at(affected_[i]).links) visit_link(l);
    }
    if (affected_.empty()) return affected_;
    std::sort(affected_.begin(), affected_.end());

    solver_.clear();
    for (const std::uint64_t id : affected_) {
      const EFlow& f = flows_.at(id);
      solver_.add_flow(f.links, f.cap);
    }
    solver_.solve([this](std::uint32_t l) { return caps_[l]; });
    for (std::size_t i = 0; i < affected_.size(); ++i) flows_.at(affected_[i]).rate = solver_.rate(i);
    return affected_;
  }

 private:
  struct EFlow {
    std::vector<std::uint32_t> links;
    Rate cap = std::numeric_limits<Rate>::infinity();
    Rate rate = 0;
    std::uint64_t mark = 0;      // epoch when last pulled into a component
  };

  void visit_link(std::uint32_t l) {
    if (link_mark_[l] == epoch_) return;
    link_mark_[l] = epoch_;
    for (const std::uint64_t id : link_flows_[l]) {
      EFlow& f = flows_.at(id);
      if (f.mark == epoch_) continue;
      f.mark = epoch_;
      affected_.push_back(id);
    }
  }

  std::vector<Rate> caps_;
  // Ordered by id (= admission order): determinism rule R3 — solve order
  // and therefore floating-point summation order must not depend on hash
  // layout. Lookups are O(log F); traversals all go through the sorted
  // per-link vectors.
  std::map<std::uint64_t, EFlow> flows_;
  std::vector<std::vector<std::uint64_t>> link_flows_;

  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint32_t> dirty_links_;
  std::vector<std::uint64_t> affected_;
  MaxMinSolver solver_;
};

}  // namespace c4h::net
