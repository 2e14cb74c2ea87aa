// DHT-based key-value store — the VStore++ metadata & resource-management
// layer (§III-A).
//
// One uniform store holds three kinds of entries: object metadata (key =
// hash of object name), service registrations (key = hash of service name ⊕
// id), and node resource records (key = node id derived from its address).
//
// Faithful to the paper's enhanced Chimera:
//  * put carries an overwrite policy — overwrite, chain a new version, or
//    return an error if the key exists;
//  * entries are cached on the intermediate hops of each request's path
//    through the overlay, and every modification propagates to the caches;
//  * entries are replicated with a fixed replication factor (ring
//    successors of the owner), restored when nodes fail, leave, or rejoin;
//  * a departing node's keys are redistributed among the remaining nodes,
//    and a joining (or restarting) node pulls the keys in its arc.
//
// Hardened for the fault-injection layer (sim/fault.hpp): every public
// operation owns a per-attempt timeout — request messages are sent
// unreliably, a drop surfaces as Errc::timeout — and put, get and erase
// retry transient failures through sim::retry (sim/retry.hpp): at most
// sim::kMaxAttempts attempts, exponential backoff with jitter.
//
// Stored values are shared, not copied: a key's version list is immutable
// once stored, and the owner's entry, its replicas and the path caches all
// point at the same list. A modification installs a new list (`chain` copies
// the old one first). Bytes are copied only when a value leaves the store
// through `get` (the last version) or `get_all` (the whole list).
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/serial.hpp"
#include "src/obs/trace.hpp"
#include "src/overlay/overlay.hpp"

namespace c4h::kv {

enum class OverwritePolicy : std::uint8_t {
  overwrite,  // replace the value
  chain,      // append a new version
  error,      // fail if the key already exists
};

struct KvConfig {
  bool path_caching = true;
  int replication = 1;                          // replicas beyond the owner
  Duration local_access = microseconds(200);    // in-memory table access
  Bytes message_overhead = 50;                  // command packet framing
  // VStore++ talks to the Chimera process over IPC (§IV); paid on entry and
  // on reply for every KV operation issued by a node.
  Duration chimera_ipc = milliseconds(2);
  // When set, put acknowledges only after the replicas are written, so an
  // acknowledged write survives the immediate crash of its owner. Off by
  // default (the paper replicates off the critical path); chaos tests that
  // assert zero acknowledged loss turn it on.
  bool ack_replication = false;
};

struct KvStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t local_hits = 0;       // resolved without any network hop
  std::uint64_t cache_hits = 0;       // served by an intermediate path cache
  std::uint64_t cache_updates = 0;    // messages refreshing caches on put
  std::uint64_t replication_msgs = 0;
  std::uint64_t redistribution_msgs = 0;
  std::uint64_t op_retries = 0;       // attempts beyond the first
  std::uint64_t op_failures = 0;      // operations that exhausted retries
  std::uint64_t send_timeouts = 0;    // request/reply messages lost in flight
};

/// The distributed key-value store. One instance manages the per-node tables
/// of every overlay member (a simulation convenience; all access paths still
/// pay the right messages and delays).
class KvStore {
 public:
  KvStore(overlay::Overlay& overlay, KvConfig config = {});

  /// Stores `value` under `key`, routed from `origin`. Blocking semantics:
  /// completes after the owner's acknowledgement (the paper's blocking store
  /// pays exactly this extra ack). Transient failures are retried with
  /// backoff; a lost request is detected by the sender's timeout and is safe
  /// to resend (the value was never applied). A non-null `ctx` records a
  /// `kv.put` span whose children are the DHT route and transfer messages.
  [[nodiscard]] sim::Task<Result<void>> put(overlay::ChimeraNode& origin, Key key, Buffer value,
                              OverwritePolicy policy = OverwritePolicy::overwrite,
                              obs::Ctx ctx = {});

  /// Latest version of the value for `key`.
  [[nodiscard]] sim::Task<Result<Buffer>> get(overlay::ChimeraNode& origin, Key key,
                                              obs::Ctx ctx = {});

  /// All chained versions, oldest first.
  [[nodiscard]] sim::Task<Result<std::vector<Buffer>>> get_all(overlay::ChimeraNode& origin, Key key,
                                                               obs::Ctx ctx = {});

  [[nodiscard]] sim::Task<Result<void>> erase(overlay::ChimeraNode& origin, Key key,
                                              obs::Ctx ctx = {});

  const KvStats& stats() const { return stats_; }
  const KvConfig& config() const { return config_; }
  overlay::Overlay& overlay() { return overlay_; }

  /// Keys for which `node` currently holds the authoritative copy.
  std::vector<Key> primary_keys(Key node) const;

  /// Total number of authoritative entries across live nodes.
  std::size_t total_entries() const;

  /// True if `node` holds a cached copy of `key` (test/diagnostic hook).
  bool has_cache(Key node, Key key) const;
  bool has_replica(Key node, Key key) const;

  /// Number of authoritative entries whose live, present replica copies fall
  /// short of the configured factor (bounded by live membership). Zero once
  /// churn has settled and repair/re-replication have run — the invariant
  /// the chaos suite asserts.
  std::size_t under_replicated();

 private:
  /// A key's version list, oldest first. Never mutated once stored, so
  /// every holder shares one list.
  using Versions = std::shared_ptr<const std::vector<Buffer>>;

  /// Nodes holding copies of one entry: a sorted, duplicate-free vector, so
  /// it iterates in key order like the std::set it replaces.
  class KeySet {
   public:
    using const_iterator = std::vector<Key>::const_iterator;
    const_iterator begin() const { return keys_.begin(); }
    const_iterator end() const { return keys_.end(); }
    bool contains(Key k) const { return std::binary_search(keys_.begin(), keys_.end(), k); }
    void insert(Key k) {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
      if (it == keys_.end() || *it != k) keys_.insert(it, k);
    }
    void erase(Key k) {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
      if (it != keys_.end() && *it == k) keys_.erase(it);
    }
    template <typename Pred>
    void erase_if(Pred pred) {
      std::erase_if(keys_, pred);
    }
    void clear() { keys_.clear(); }

   private:
    std::vector<Key> keys_;
  };

  struct Entry {
    Versions versions;
    // Mutation counter, copied into every replica. When a failed owner's key
    // survives only in replicas, repair promotes the copy with the highest
    // seq — an owner that crashed mid-replication may leave copies of
    // different ages behind, and an acknowledged write must never lose to an
    // older copy.
    std::uint64_t seq = 0;
    KeySet cached_at;    // nodes holding path-cache copies
    KeySet replica_at;   // nodes holding replicas
  };

  struct ReplicaCopy {
    Versions versions;
    std::uint64_t seq = 0;
  };

  // Held by reference across suspensions, so stores_ must stay a node-stable
  // map: its references survive rehashing. Erasure does not keep them valid,
  // so a frame that suspended re-finds what it reads.
  struct NodeStore {
    std::unordered_map<Key, Entry> primary;
    std::unordered_map<Key, ReplicaCopy> replica;
    std::unordered_map<Key, Versions> cache;
  };

  sim::Task<Result<void>> put_attempt(overlay::ChimeraNode& origin, Key key,
                                      const Buffer& value, OverwritePolicy policy, obs::Ctx ctx);
  /// get and get_all share this body; the caller copies out what it returns.
  sim::Task<Result<Versions>> lookup(overlay::ChimeraNode& origin, Key key, obs::Ctx ctx);
  sim::Task<Result<Versions>> get_routed(overlay::ChimeraNode& origin, Key key, obs::Ctx ctx);
  sim::Task<Result<void>> erase_attempt(overlay::ChimeraNode& origin, Key key, obs::Ctx ctx);
  sim::Task<> replicate(overlay::ChimeraNode& owner, Key key);
  sim::Task<> refresh_caches(overlay::ChimeraNode& owner, Key key);
  sim::Task<> redistribute_on_leave(overlay::ChimeraNode& leaver);
  sim::Task<> redistribute_on_join(overlay::ChimeraNode& joiner);
  sim::Task<> repair_after_failure(Key dead);
  /// Re-replicates every entry below the expected factor (after churn).
  void restore_replication();
  /// Erases the replica copies registered in `entry` (stale after an
  /// ownership move) and clears the set.
  void drop_replicas(Key key, Entry& entry);
  int expected_replicas();
  int live_replica_count(Key key, const Entry& entry) const;
  Bytes value_bytes(const Versions& versions) const;

  overlay::Overlay& overlay_;
  KvConfig config_;
  Rng rng_;  // backoff jitter; forked from the simulation seed
  std::unordered_map<Key, NodeStore> stores_;  // per overlay node
  KvStats stats_;
};

}  // namespace c4h::kv
