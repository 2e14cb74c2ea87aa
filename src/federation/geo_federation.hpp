// City-scale object federation: hierarchical directory, geo-aware
// replication, and churn repair (DESIGN.md §12; paper §VII (v) grown to a
// metro deployment).
//
// Two routing tiers share the work:
//
//  * Inside a neighborhood, objects are found the way the paper does it —
//    Chimera prefix routing over the home overlays (src/overlay). The
//    federation never duplicates that machinery; it only decides *which
//    home* to ask.
//
//  * Between neighborhoods, a partitioned directory says who holds what:
//    shard `hash(name) % hoods` lives at that neighborhood's internet core,
//    so directory traffic pays the leaf/spine path to the shard's
//    neighborhood instead of a WAN trip to the datacenter. Every shard is
//    an ordered std::map — iteration order (repair sweeps, fingerprints) is
//    deterministic by construction.
//
// Placement: a published object gets `replication` copies in *distinct
// neighborhoods*, nearest-first by routed spine latency from the owner
// (DynoStore-style locality-aware wide-area placement). Fetch classifies
// into four cost tiers — local home / same neighborhood / wide-area
// replica (nearest live one) / shared cloud — and the bench reports tail
// latency per tier. When churn takes a hosting home's node away,
// repair_scan() re-replicates from any surviving copy, Chelonia-style.
#pragma once

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/federation/neighborhood.hpp"
#include "src/obs/metrics.hpp"
#include "src/vstore/home_cloud.hpp"

namespace c4h::federation {

struct GeoConfig {
  /// Copies of each published object, counting the publisher's own
  /// (placed in distinct neighborhoods while enough exist).
  int replication = 2;

  // Directory message sizes (query and reply carry entry metadata).
  Bytes dir_request = 200;
  Bytes dir_reply = 300;
};

/// Which cost tier served a fetch (ordered cheapest → dearest).
enum class FetchPath : std::uint8_t { local = 0, neighborhood = 1, wide_area = 2, cloud = 3 };
inline constexpr std::size_t kFetchPaths = 4;

constexpr const char* to_string(FetchPath p) {
  switch (p) {
    case FetchPath::local: return "local";
    case FetchPath::neighborhood: return "neighborhood";
    case FetchPath::wide_area: return "wide_area";
    case FetchPath::cloud: return "cloud";
  }
  return "?";
}

struct GeoFetch {
  Bytes size = 0;
  FetchPath path = FetchPath::local;
  std::string source_home;        // empty when cloud-served
  std::size_t source_hood = 0;    // neighborhood index of the serving copy
  Duration total{};
  Duration directory_lookup{};
  Duration transfer{};
};

struct GeoStats {
  std::uint64_t published = 0;
  std::uint64_t withdrawn = 0;
  std::uint64_t directory_queries = 0;
  std::uint64_t replicas_placed = 0;   // at publish time
  std::uint64_t repairs = 0;           // replicas re-created by repair_scan
  std::uint64_t repair_failures = 0;   // entries with no live copy to heal from
  std::uint64_t fetch_errors = 0;
  std::array<std::uint64_t, kFetchPaths> fetches{};  // by FetchPath
  double bytes_replicated = 0;
  double bytes_fetched = 0;
};

/// The city-wide federation service. One instance per City; all homes
/// share it (it models the directory shards their gateways talk to).
class GeoFederation {
 public:
  GeoFederation(vstore::City& city, GeoConfig config = {});

  /// Announces a stored object city-wide and places `replication-1`
  /// additional copies in the nearest distinct neighborhoods. Re-publishing
  /// by the owner refreshes the entry; anyone else gets permission_denied.
  [[nodiscard]] sim::Task<Result<void>> publish(vstore::HomeCloud& home, vstore::VStoreNode& node,
                                                const std::string& object_name);

  /// Retrieves a published object into `node`, choosing the cheapest live
  /// copy: own home → own neighborhood → nearest wide-area replica (by
  /// routed spine latency) → shared cloud. Errc::unavailable when no copy
  /// is reachable.
  [[nodiscard]] sim::Task<Result<GeoFetch>> fetch(vstore::HomeCloud& home,
                                                  vstore::VStoreNode& node,
                                                  const std::string& object_name);

  /// Removes the directory entry (owner only). Replica bytes stay in the
  /// hosting voluntary bins until their fs evicts them.
  [[nodiscard]] sim::Task<Result<void>> withdraw(vstore::HomeCloud& home,
                                                 vstore::VStoreNode& node,
                                                 const std::string& object_name);

  /// One repair sweep over every directory shard: any entry whose live
  /// copy count dropped below the replication degree (but is still ≥ 1)
  /// gets re-replicated from a surviving copy into the nearest
  /// neighborhoods not already hosting one. Returns replicas created.
  [[nodiscard]] sim::Task<std::size_t> repair_scan();

  /// Live copies of a published object right now (0 when not published).
  std::size_t live_replicas(const std::string& object_name) const;

  std::size_t directory_size() const;
  std::size_t partition_count() const { return partitions_.size(); }
  const GeoStats& stats() const { return stats_; }

  /// Deterministic serialization of the whole directory (names, sizes,
  /// owners, replica sets in shard order) — the determinism tests compare
  /// this across same-seed runs.
  std::string fingerprint() const;

 private:
  struct Replica {
    vstore::HomeCloud* home = nullptr;
    std::size_t hood = 0;  // neighborhood index
    Key node_key;          // hosting node inside the home
  };

  struct Entry {
    Bytes size = 0;
    vstore::HomeCloud* owner_home = nullptr;
    std::size_t owner_hood = 0;
    std::string s3_url;             // set when the object lives in the cloud
    std::vector<Replica> replicas;  // [0] is the publisher's own copy
  };

  std::size_t partition_of(const std::string& name) const {
    return static_cast<std::size_t>(Key::from_name(name).raw()) % partitions_.size();
  }

  /// The node hosting this replica, or nullptr when it (or its whole home)
  /// is currently unreachable.
  static vstore::VStoreNode* live_node(const Replica& r);

  /// Directory round trip from `node` to the shard's neighborhood core.
  sim::Task<> directory_round_trip(vstore::VStoreNode& node, std::size_t partition);

  /// Copies `name` (size `size`) from `src` into up to `want` nodes in the
  /// nearest neighborhoods (by spine latency from `from_hood`) whose index
  /// is not in `exclude`. Returns the replicas created.
  sim::Task<std::vector<Replica>> place_replicas(vstore::VStoreNode& src, std::size_t from_hood,
                                                 const std::string& name, Bytes size, int want,
                                                 std::set<std::size_t> exclude);

  /// Copy one object into a chosen node across the wide area.
  sim::Task<bool> copy_to(vstore::VStoreNode& src, vstore::VStoreNode& dst,
                          const std::string& name, Bytes size);

  void note_fetch(FetchPath path, Duration total);

  vstore::City& city_;
  GeoConfig config_;
  /// Directory shard per neighborhood; ordered for deterministic sweeps.
  std::vector<std::map<std::string, Entry>> partitions_;
  GeoStats stats_;
  // Cached per-path metrics in the city registry so every path's row exists
  // in every artifact (zero-count included).
  std::array<obs::Counter*, kFetchPaths> fetch_counters_{};
  std::array<obs::LogHistogram*, kFetchPaths> fetch_latency_{};
};

}  // namespace c4h::federation
