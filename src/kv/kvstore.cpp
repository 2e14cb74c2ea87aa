#include "src/kv/kvstore.hpp"

#include <algorithm>
#include <set>

#include "src/common/ordered.hpp"

namespace c4h::kv {

using overlay::ChimeraNode;

KvStore::KvStore(overlay::Overlay& overlay, KvConfig config)
    : overlay_(overlay), config_(config), rng_(overlay.simulation().rng().fork()) {
  overlay_.set_leave_hook([this](ChimeraNode& n) { return redistribute_on_leave(n); });
  overlay_.set_join_hook([this](ChimeraNode& n) { return redistribute_on_join(n); });
  overlay_.set_failure_hook([this](Key dead) { return repair_after_failure(dead); });
}

Bytes KvStore::value_bytes(const Versions& versions) const {
  Bytes b = config_.message_overhead;
  for (const auto& v : *versions) b += v.size();
  return b;
}

void KvStore::drop_replicas(Key key, Entry& entry) {
  for (const Key r : entry.replica_at) {
    const auto s = stores_.find(r);
    if (s != stores_.end()) s->second.replica.erase(key);
    ++stats_.replication_msgs;
  }
  entry.replica_at.clear();
}

int KvStore::expected_replicas() {
  const int live = static_cast<int>(overlay_.live_members().size());
  return std::min(config_.replication, std::max(0, live - 1));
}

int KvStore::live_replica_count(Key key, const Entry& entry) const {
  int n = 0;
  for (const Key r : entry.replica_at) {
    const auto it = stores_.find(r);
    if (it == stores_.end() || !it->second.replica.contains(key)) continue;
    ChimeraNode* rn = overlay_.node_by_key(r);
    if (rn != nullptr && rn->online()) ++n;
  }
  return n;
}

std::size_t KvStore::under_replicated() {
  const int expected = expected_replicas();
  std::size_t deficient = 0;
  for (auto& [node, store] : stores_) {
    ChimeraNode* holder = overlay_.node_by_key(node);
    if (holder == nullptr || !holder->online()) continue;
    for (auto& [key, entry] : store.primary) {
      if (live_replica_count(key, entry) < expected) ++deficient;
    }
  }
  return deficient;
}

sim::Task<Result<void>> KvStore::put(ChimeraNode& origin, Key key, Buffer value,
                                     OverwritePolicy policy, obs::Ctx ctx) {
  ++stats_.puts;
  auto& sim = overlay_.simulation();
  obs::ScopedSpan sp(ctx, "kv.put");
  co_await sim.delay(config_.chimera_ipc);  // hand the request to Chimera

  Result<void> res = Error{Errc::unavailable, "not attempted"};
  for (int attempt = 1;; ++attempt) {
    res = co_await put_attempt(origin, key, value, policy, sp.ctx());
    if (res.ok() || !RetryPolicy::transient(res.code())) break;
    if (attempt >= config_.retry.max_attempts) {
      ++stats_.op_failures;
      break;
    }
    ++stats_.op_retries;
    co_await sim.delay(config_.retry.backoff(attempt, rng_));
  }
  co_await sim.delay(config_.chimera_ipc);  // reply crosses back over IPC
  if (!res.ok()) sp.set_error(res.error().message);
  co_return res;
}

sim::Task<Result<void>> KvStore::put_attempt(ChimeraNode& origin, Key key, const Buffer& value,
                                             OverwritePolicy policy, obs::Ctx ctx) {
  auto& sim = overlay_.simulation();
  auto& net = overlay_.network();

  auto routed = co_await overlay_.route(origin, key, {}, ctx);
  if (!routed.ok()) co_return routed.error();
  ChimeraNode* owner = overlay_.node_by_key(routed->owner);
  if (owner == nullptr || !owner->online()) co_return Error{Errc::unavailable, "owner offline"};

  // Ship the value to the owner (command packet + serialized value). The
  // request travels unreliably: a drop — or the owner dying with the request
  // in flight — surfaces before the value is applied, so resending is safe.
  if (owner != &origin) {
    const bool delivered = co_await net.try_send_message(
        origin.net_node(), owner->net_node(), config_.message_overhead + value.size(), ctx);
    if (!delivered) {
      ++stats_.send_timeouts;
      co_return Error{Errc::timeout, "put request lost"};
    }
    if (!owner->online()) co_return Error{Errc::unavailable, "owner died in flight"};
  }
  co_await sim.delay(config_.local_access);

  NodeStore& store = stores_[owner->id()];
  if (policy == OverwritePolicy::error && store.primary.contains(key)) {
    if (owner != &origin) {
      co_await net.send_message(owner->net_node(), origin.net_node(), 50, ctx);
    }
    co_return Error{Errc::already_exists, "key exists and policy is error"};
  }
  Entry& entry = store.primary[key];
  auto next = std::make_shared<std::vector<Buffer>>();
  if (policy == OverwritePolicy::chain && entry.versions != nullptr) {
    // Copy-on-write: replicas and caches may still share the old list.
    next->reserve(entry.versions->size() + 1);
    next->assign(entry.versions->begin(), entry.versions->end());
  }
  next->push_back(value);
  entry.versions = std::move(next);
  ++entry.seq;

  // Caches are updated before the ack ("whenever a key-value entry is
  // modified, the corresponding caches are also updated"), keeping reads
  // coherent; replication proceeds off the critical path unless the store
  // was configured for acknowledged replication.
  co_await refresh_caches(*owner, key);
  if (config_.ack_replication) {
    co_await replicate(*owner, key);
    if (!owner->online()) {
      // The owner died during replication. The write is durable only if at
      // least one replica actually landed; otherwise fail the attempt so the
      // caller retries against the key's next owner.
      bool durable = false;
      if (const auto sit = stores_.find(owner->id()); sit != stores_.end()) {
        if (const auto pit = sit->second.primary.find(key); pit != sit->second.primary.end()) {
          durable = live_replica_count(key, pit->second) > 0;
        }
      }
      if (!durable) co_return Error{Errc::unavailable, "owner died before replication"};
    }
  } else {
    sim.spawn(replicate(*owner, key));
  }

  if (owner != &origin) {
    co_await net.send_message(owner->net_node(), origin.net_node(), 50, ctx);  // ack
  }
  co_return Result<void>{};
}

sim::Task<Result<Buffer>> KvStore::get(ChimeraNode& origin, Key key, obs::Ctx ctx) {
  auto found = co_await lookup(origin, key, ctx);
  if (!found.ok()) co_return found.error();
  if ((*found)->empty()) co_return Error{Errc::not_found, "empty entry"};
  co_return (*found)->back();
}

sim::Task<Result<std::vector<Buffer>>> KvStore::get_all(ChimeraNode& origin, Key key,
                                                        obs::Ctx ctx) {
  auto found = co_await lookup(origin, key, ctx);
  if (!found.ok()) co_return found.error();
  co_return std::vector<Buffer>(**found);
}

sim::Task<Result<KvStore::Versions>> KvStore::lookup(ChimeraNode& origin, Key key, obs::Ctx ctx) {
  ++stats_.gets;
  auto& sim = overlay_.simulation();
  obs::ScopedSpan sp(ctx, "kv.get");
  co_await sim.delay(config_.chimera_ipc);

  // Local fast path: authoritative copy or cache on the origin. Replicas are
  // deliberately NOT served here: replication is asynchronous, so a replica
  // can lag the owner's copy; it only serves through the routed path, where
  // the holder is the key's (possibly newly promoted) owner.
  {
    NodeStore& mine = stores_[origin.id()];
    const auto pit = mine.primary.find(key);
    if (pit != mine.primary.end()) {
      ++stats_.local_hits;
      sp.attr("source", "local");
      co_await sim.delay(config_.local_access + config_.chimera_ipc);
      // Re-find after the suspension: a concurrent put can rehash the table
      // and churn can erase the entry, either of which invalidates `pit`.
      const auto cur = mine.primary.find(key);
      if (cur != mine.primary.end()) co_return cur->second.versions;
      co_return Error{Errc::not_found, "evicted during local access"};
    }
    if (config_.path_caching) {
      const auto cit = mine.cache.find(key);
      if (cit != mine.cache.end()) {
        ++stats_.local_hits;
        sp.attr("source", "cache");
        co_await sim.delay(config_.local_access + config_.chimera_ipc);
        // Same revalidation: the cache is mutated by refresh_caches and
        // invalidations that may run while this frame is suspended.
        const auto cur = mine.cache.find(key);
        if (cur != mine.cache.end()) co_return cur->second;
        co_return Error{Errc::not_found, "evicted during local access"};
      }
    }
  }

  sp.attr("source", "routed");
  Result<Versions> res = Error{Errc::unavailable, "not attempted"};
  for (int attempt = 1;; ++attempt) {
    res = co_await get_routed(origin, key, sp.ctx());
    if (res.ok() || !RetryPolicy::transient(res.code())) break;
    if (attempt >= config_.retry.max_attempts) {
      ++stats_.op_failures;
      break;
    }
    ++stats_.op_retries;
    co_await sim.delay(config_.retry.backoff(attempt, rng_));
  }
  co_await sim.delay(config_.chimera_ipc);
  if (!res.ok()) sp.set_error(res.error().message);
  co_return res;
}

sim::Task<Result<KvStore::Versions>> KvStore::get_routed(ChimeraNode& origin, Key key,
                                                        obs::Ctx ctx) {
  auto& sim = overlay_.simulation();
  auto& net = overlay_.network();

  // Route toward the owner, stopping early at any hop with a cached copy.
  std::function<bool(ChimeraNode&)> stop;
  if (config_.path_caching) {
    stop = [this, key](ChimeraNode& n) {
      const auto sit = stores_.find(n.id());
      return sit != stores_.end() && sit->second.cache.contains(key);
    };
  }
  auto routed = co_await overlay_.route(origin, key, stop, ctx);
  if (!routed.ok()) co_return routed.error();
  ChimeraNode* holder = overlay_.node_by_key(routed->owner);
  if (holder == nullptr || !holder->online()) co_return Error{Errc::unavailable, "holder offline"};

  // Which of the holder's tables serves: the authoritative copy, a replica
  // (the owner changed after a failure), or a path cache.
  enum class Table : std::uint8_t { none, primary, replica, cache };
  Table table = Table::none;
  {
    const NodeStore& hs = stores_[holder->id()];
    if (hs.primary.contains(key)) {
      table = Table::primary;
    } else if (hs.replica.contains(key)) {
      table = Table::replica;
    } else if (config_.path_caching && hs.cache.contains(key)) {
      table = Table::cache;
      ++stats_.cache_hits;
    }
  }

  co_await sim.delay(config_.local_access);
  // Re-find after the suspension: an erase, a leave or a repair may have
  // removed the entry (or the holder's whole store) meanwhile.
  Versions versions;
  if (const auto sit = stores_.find(holder->id()); sit != stores_.end()) {
    const NodeStore& hs = sit->second;
    if (table == Table::primary) {
      const auto it = hs.primary.find(key);
      if (it != hs.primary.end()) versions = it->second.versions;
    } else if (table == Table::replica) {
      const auto it = hs.replica.find(key);
      if (it != hs.replica.end()) versions = it->second.versions;
    } else if (table == Table::cache) {
      const auto it = hs.cache.find(key);
      if (it != hs.cache.end()) versions = it->second;
    }
  }
  if (versions == nullptr) {
    if (holder != &origin) {
      co_await net.send_message(holder->net_node(), origin.net_node(), 50, ctx);
    }
    co_return Error{Errc::not_found, "no value for key"};
  }

  // Reply straight back to the origin with the value. Unreliable: a lost
  // reply is the origin's timeout to detect (and safe to retry — reads are
  // idempotent).
  if (holder != &origin) {
    const bool delivered = co_await net.try_send_message(holder->net_node(), origin.net_node(),
                                                         value_bytes(versions), ctx);
    if (!delivered) {
      ++stats_.send_timeouts;
      co_return Error{Errc::timeout, "read reply lost"};
    }
  }

  // Populate path caches (including the origin) and register them with the
  // owner for future invalidation. Only for values served from the
  // authoritative copy, and only while that copy still holds the same bytes
  // — a concurrent put may have refreshed the caches already, and
  // registering an older value afterwards would leave them permanently
  // stale. An overwrite with equal bytes installs a new list, so compare
  // contents, not pointers.
  if (config_.path_caching && table == Table::primary) {
    const auto hit = stores_.find(holder->id());
    if (hit != stores_.end()) {
      if (auto pit = hit->second.primary.find(key);
          pit != hit->second.primary.end() &&
          (pit->second.versions == versions || *pit->second.versions == *versions)) {
        Entry& entry = pit->second;
        auto cache_on = [&](Key node_key) {
          if (node_key == holder->id()) return;
          ChimeraNode* cn = overlay_.node_by_key(node_key);
          if (cn == nullptr || !cn->online()) return;
          stores_[node_key].cache[key] = versions;
          entry.cached_at.insert(node_key);
          ++stats_.cache_updates;
        };
        for (const Key hop : routed->path) cache_on(hop);
        cache_on(origin.id());
      }
    }
  }

  co_return versions;
}

sim::Task<Result<void>> KvStore::erase(ChimeraNode& origin, Key key, obs::Ctx ctx) {
  ++stats_.erases;
  auto& sim = overlay_.simulation();
  obs::ScopedSpan sp(ctx, "kv.erase");

  Result<void> res = Error{Errc::unavailable, "not attempted"};
  for (int attempt = 1;; ++attempt) {
    res = co_await erase_attempt(origin, key, sp.ctx());
    if (res.ok() || !RetryPolicy::transient(res.code())) break;
    if (attempt >= config_.retry.max_attempts) {
      ++stats_.op_failures;
      break;
    }
    ++stats_.op_retries;
    co_await sim.delay(config_.retry.backoff(attempt, rng_));
  }
  if (!res.ok()) sp.set_error(res.error().message);
  co_return res;
}

sim::Task<Result<void>> KvStore::erase_attempt(ChimeraNode& origin, Key key, obs::Ctx ctx) {
  auto& sim = overlay_.simulation();
  auto& net = overlay_.network();

  auto routed = co_await overlay_.route(origin, key, {}, ctx);
  if (!routed.ok()) co_return routed.error();
  ChimeraNode* owner = overlay_.node_by_key(routed->owner);
  if (owner == nullptr || !owner->online()) co_return Error{Errc::unavailable, "owner offline"};
  if (owner != &origin) {
    const bool delivered =
        co_await net.try_send_message(origin.net_node(), owner->net_node(), 50, ctx);
    if (!delivered) {
      ++stats_.send_timeouts;
      co_return Error{Errc::timeout, "erase request lost"};
    }
    if (!owner->online()) co_return Error{Errc::unavailable, "owner died in flight"};
  }
  co_await sim.delay(config_.local_access);

  NodeStore& store = stores_[owner->id()];
  const auto it = store.primary.find(key);
  if (it == store.primary.end()) {
    if (owner != &origin) {
      co_await net.send_message(owner->net_node(), origin.net_node(), 50, ctx);
    }
    co_return Error{Errc::not_found, "no value for key"};
  }

  // Tear down every copy, registered or not: an unregistered stray replica
  // left behind would otherwise be promoted after a later failure and
  // resurrect the deleted key.
  for (auto& [node, s] : stores_) {
    if (s.cache.erase(key) > 0) ++stats_.cache_updates;
    if (s.replica.erase(key) > 0) ++stats_.replication_msgs;
  }
  store.primary.erase(key);

  if (owner != &origin) co_await net.send_message(owner->net_node(), origin.net_node(), 50, ctx);
  co_return Result<void>{};
}

sim::Task<> KvStore::refresh_caches(ChimeraNode& owner, Key key) {
  auto& net = overlay_.network();
  const auto sit = stores_.find(owner.id());
  if (sit == stores_.end()) co_return;
  const auto it = sit->second.primary.find(key);
  if (it == sit->second.primary.end()) co_return;

  // Copy targets first: the entry may mutate while we await messages.
  const std::vector<Key> targets(it->second.cached_at.begin(), it->second.cached_at.end());
  for (const Key c : targets) {
    ChimeraNode* n = overlay_.node_by_key(c);
    if (n == nullptr || !n->online()) continue;
    auto cur = stores_[owner.id()].primary.find(key);
    if (cur == stores_[owner.id()].primary.end()) co_return;  // erased meanwhile
    ++stats_.cache_updates;
    co_await net.send_message(owner.net_node(), n->net_node(), value_bytes(cur->second.versions));
    // Revalidate after the transfer; the entry (or the cache holder) may be
    // gone by the time the update lands.
    cur = stores_[owner.id()].primary.find(key);
    if (cur == stores_[owner.id()].primary.end()) co_return;
    if (!cur->second.cached_at.contains(c)) continue;
    stores_[c].cache[key] = cur->second.versions;
  }
}

sim::Task<> KvStore::replicate(ChimeraNode& owner, Key key) {
  auto& net = overlay_.network();
  if (config_.replication <= 0) co_return;
  const auto succ = overlay_.successors_of(owner.id(), config_.replication);
  for (const Key r : succ) {
    if (!owner.online()) co_return;  // owner died; repair takes over from here
    ChimeraNode* n = overlay_.node_by_key(r);
    if (n == nullptr || !n->online()) continue;
    const auto sit = stores_.find(owner.id());
    if (sit == stores_.end()) co_return;
    auto cur = sit->second.primary.find(key);
    if (cur == sit->second.primary.end()) co_return;  // erased/moved meanwhile
    const Versions versions = cur->second.versions;
    const std::uint64_t seq = cur->second.seq;
    ++stats_.replication_msgs;
    co_await net.send_message(owner.net_node(), n->net_node(), value_bytes(versions));
    // Revalidate: the entry may have moved and the target may have died while
    // the copy was in flight.
    const auto sit2 = stores_.find(owner.id());
    if (sit2 == stores_.end()) co_return;
    const auto cur2 = sit2->second.primary.find(key);
    if (cur2 == sit2->second.primary.end()) co_return;
    if (!n->online()) continue;
    stores_[r].replica[key] = ReplicaCopy{versions, seq};
    cur2->second.replica_at.insert(r);
  }
}

void KvStore::restore_replication() {
  // Applied synchronously (messages counted, not awaited), same as the
  // join-time key moves: restoration runs at membership events, and an
  // awaited restore leaves a window where the next crash in the schedule
  // can take the last live copy of an entry whose repair was still queued
  // behind other transfers. The safety floor ("never crash more nodes than
  // the replication factor") is only sound if redundancy is whole again by
  // the time each membership event finishes.
  if (config_.replication <= 0) return;
  std::vector<std::pair<Key, Key>> work;  // (owner node, key); apply after the
  // scan so inserts can't rehash under us. The scan loops are hash-ordered but
  // only collect; sorting `work` below makes repair order seed-stable (D3).
  for (auto& [node, store] : stores_) {  // c4h-analyze: allow(D3) — collect only; sorted below
    ChimeraNode* holder = overlay_.node_by_key(node);
    if (holder == nullptr || !holder->online()) continue;
    for (auto& [key, entry] : store.primary) {  // c4h-analyze: allow(D3) — collect only; sorted below
      if (live_replica_count(key, entry) < expected_replicas()) work.emplace_back(node, key);
    }
  }
  std::sort(work.begin(), work.end());
  for (const auto& [node, key] : work) {
    const auto sit = stores_.find(node);
    if (sit == stores_.end()) continue;
    const auto pit = sit->second.primary.find(key);
    if (pit == sit->second.primary.end()) continue;
    const auto succ = overlay_.successors_of(node, config_.replication);
    for (const Key r : succ) {
      ChimeraNode* n = overlay_.node_by_key(r);
      if (n == nullptr || !n->online()) continue;
      NodeStore& rs = stores_[r];  // may rehash: re-find the entry afterwards
      const auto pe = stores_.find(node)->second.primary.find(key);
      if (pe->second.replica_at.contains(r) && rs.replica.contains(key)) continue;
      ++stats_.replication_msgs;
      rs.replica[key] = ReplicaCopy{pe->second.versions, pe->second.seq};
      pe->second.replica_at.insert(r);
    }
  }
}

sim::Task<> KvStore::redistribute_on_leave(ChimeraNode& leaver) {
  auto& net = overlay_.network();
  const auto find_primary = [this](Key node, Key key) -> Entry* {
    const auto s = stores_.find(node);
    if (s == stores_.end()) return nullptr;
    const auto p = s->second.primary.find(key);
    return p != s->second.primary.end() ? &p->second : nullptr;
  };

  if (const auto sit = stores_.find(leaver.id()); sit != stores_.end()) {
    // Hand each authoritative entry to the node that becomes its owner once
    // the leaver is gone (its closest remaining ring neighbour for that key).
    // Sorted traversal: the transfers below emit awaited messages, so the
    // hand-off order must be a function of the seed, not of hash layout.
    for (const Key key : sorted_keys(sit->second.primary)) {
      Entry* e = find_primary(leaver.id(), key);
      if (e == nullptr) continue;  // moved/erased while we were transferring
      Key best{};
      std::uint64_t best_dist = UINT64_MAX;
      for (ChimeraNode* n : overlay_.live_members()) {
        if (n == &leaver) continue;
        const auto d = n->id().ring_distance(key);
        if (d < best_dist || (d == best_dist && n->id() < best)) {
          best = n->id();
          best_dist = d;
        }
      }
      if (best_dist == UINT64_MAX) co_return;  // last node leaving; data is lost
      ChimeraNode* target = overlay_.node_by_key(best);
      ++stats_.redistribution_msgs;
      co_await net.send_message(leaver.net_node(), target->net_node(), value_bytes(e->versions));

      e = find_primary(leaver.id(), key);  // revalidate after the transfer
      if (e == nullptr) continue;
      Entry moved = std::move(*e);
      stores_[leaver.id()].primary.erase(key);
      // The old replica set was chosen for the old owner's ring position;
      // drop those copies and re-form around the new owner. Cache copies stay
      // valid (the value is unchanged) and keep their registrations, so the
      // new owner continues refreshing them.
      drop_replicas(key, moved);
      moved.cached_at.erase(best);
      moved.cached_at.erase(leaver.id());
      stores_[best].cache.erase(key);  // its primary now shadows any cached copy
      stores_[best].primary[key] = std::move(moved);
      overlay_.simulation().spawn(replicate(*target, key));
    }
    stores_.erase(leaver.id());
  }

  // Scrub the leaver from every cache/replica registration — its copies left
  // with it.
  for (auto& [node, store] : stores_) {
    for (auto& [key, entry] : store.primary) {
      entry.cached_at.erase(leaver.id());
      entry.replica_at.erase(leaver.id());
    }
  }
  restore_replication();
}

sim::Task<> KvStore::redistribute_on_join(ChimeraNode& joiner) {
  const Key jid = joiner.id();

  // A (re)joining node's volatile KV state is stale from before its crash:
  // path caches missed refreshes while it was down and its replica copies are
  // no longer registered with any owner. Drop both. Its primary entries — the
  // authoritative copies if the crash was never detected — are kept, with
  // dangling registrations pruned.
  if (const auto sit = stores_.find(jid); sit != stores_.end()) {
    sit->second.cache.clear();
    sit->second.replica.clear();
    for (auto& [key, entry] : sit->second.primary) {
      entry.replica_at.erase_if([&](Key r) {
        const auto s = stores_.find(r);
        return s == stores_.end() || !s->second.replica.contains(key);
      });
      entry.cached_at.erase_if([&](Key c) {
        const auto s = stores_.find(c);
        return s == stores_.end() || !s->second.cache.contains(key);
      });
    }
  }
  for (auto& [node, store] : stores_) {
    if (node == jid) continue;
    for (auto& [key, entry] : store.primary) {
      entry.cached_at.erase(jid);
      entry.replica_at.erase(jid);
    }
  }

  // Pull every key in the joiner's arc from its current holder ("a departing
  // node's keys are always redistributed among the available set of nodes" —
  // and symmetrically on join). Applied atomically at join time (messages are
  // counted, not awaited) so no read can observe the half-moved state; the
  // restored node may hold an older copy of a key that was re-owned and
  // rewritten while it was down, and that stale copy must never serve.
  std::vector<std::pair<Key, Key>> moves;  // (holder node, key)
  for (auto& [node, store] : stores_) {  // c4h-analyze: allow(D3) — collect only; sorted below
    if (node == jid) continue;
    ChimeraNode* holder = overlay_.node_by_key(node);
    if (holder == nullptr || !holder->online()) continue;
    for (auto& [key, entry] : store.primary) {  // c4h-analyze: allow(D3) — collect only; sorted below
      if (overlay_.true_owner(key) == jid) moves.emplace_back(node, key);
    }
  }
  // Sorted application: message counting and seq-based promotion below must
  // happen in a seed-stable order, not hash order.
  std::sort(moves.begin(), moves.end());
  for (const auto& [holder_key, key] : moves) {
    const auto hs = stores_.find(holder_key);
    if (hs == stores_.end()) continue;
    const auto pit = hs->second.primary.find(key);
    if (pit == hs->second.primary.end()) continue;
    ++stats_.redistribution_msgs;
    Entry moved = std::move(pit->second);
    hs->second.primary.erase(pit);
    // If the rejoined node kept an older copy from before its crash, the
    // freshest one wins (seq is monotone per entry).
    if (const auto mine = stores_[jid].primary.find(key);
        mine != stores_[jid].primary.end() && mine->second.seq > moved.seq) {
      drop_replicas(key, moved);
      continue;
    }
    drop_replicas(key, moved);
    moved.cached_at.erase(jid);
    stores_[jid].cache.erase(key);
    stores_[jid].primary[key] = std::move(moved);
  }

  // Re-form replica sets around the new membership.
  restore_replication();
  co_return;  // no awaits remain, but this must stay a coroutine
}

sim::Task<> KvStore::repair_after_failure(Key dead) {
  // A restart can race failure detection: if the "dead" node is back online
  // and in the ring, its table is current state, not wreckage — wiping it
  // would destroy live acknowledged data. Its rejoin already repaired
  // membership and redistributed keys.
  if (ChimeraNode* back = overlay_.node_by_key(dead);
      back != nullptr && back->online() && back->in_ring()) {
    co_return;
  }
  auto& net = overlay_.network();
  // The dead node's volatile table is gone. Every key it owned survives only
  // in replicas; promote the freshest replica of each at the key's new owner,
  // then restore the replication factor. Also scrub the dead node from
  // cache/replica registrations.
  stores_.erase(dead);
  for (auto& [node, store] : stores_) {
    for (auto& [key, entry] : store.primary) {
      entry.cached_at.erase(dead);
      entry.replica_at.erase(dead);
    }
  }

  // Keys whose replicas exist but whose current owner lost the primary.
  // The scan is hash-ordered but the std::set canonicalizes: promotion below
  // runs in sorted key order regardless of how the orphans were discovered.
  std::set<Key> orphaned;
  for (auto& [node, store] : stores_) {
    ChimeraNode* holder = overlay_.node_by_key(node);
    if (holder == nullptr || !holder->online()) continue;
    for (auto& [key, copy] : store.replica) {
      const Key owner = overlay_.true_owner(key);
      const auto oit = stores_.find(owner);
      if (oit == stores_.end() || !oit->second.primary.contains(key)) orphaned.insert(key);
    }
  }

  for (const Key key : orphaned) {
    // The freshest live copy wins: an owner that crashed mid-replication
    // leaves copies of different ages, and an acknowledged write must not
    // lose to an older one.
    Key best_holder{};
    std::uint64_t best_seq = 0;
    bool found = false;
    // A max scan with a total-order tie-break on node id: hash order cannot
    // change the winner.
    for (auto& [node, store] : stores_) {
      ChimeraNode* h = overlay_.node_by_key(node);
      if (h == nullptr || !h->online()) continue;
      const auto rit = store.replica.find(key);
      if (rit == store.replica.end()) continue;
      if (!found || rit->second.seq > best_seq ||
          (rit->second.seq == best_seq && node < best_holder)) {
        found = true;
        best_seq = rit->second.seq;
        best_holder = node;
      }
    }
    if (!found) continue;
    const Key owner_key = overlay_.true_owner(key);
    ChimeraNode* owner = overlay_.node_by_key(owner_key);
    if (owner == nullptr || !owner->online()) continue;
    if (stores_[owner_key].primary.contains(key)) continue;  // repaired meanwhile
    const ReplicaCopy copy = stores_[best_holder].replica[key];
    if (best_holder != owner_key) {
      ++stats_.redistribution_msgs;
      ChimeraNode* holder = overlay_.node_by_key(best_holder);
      if (holder != nullptr) {
        co_await net.send_message(holder->net_node(), owner->net_node(),
                                  value_bytes(copy.versions));
      }
      // Revalidate after the transfer — ownership or liveness may have moved.
      if (overlay_.true_owner(key) != owner_key || !owner->online()) continue;
      if (stores_[owner_key].primary.contains(key)) continue;
    }

    Entry& pe = stores_[owner_key].primary[key];
    pe.versions = copy.versions;
    pe.seq = copy.seq;
    pe.cached_at.clear();
    pe.replica_at.clear();
    // Surviving copies: refresh older ones to the promoted value and
    // re-register them; cached copies of the key anywhere may predate the
    // crash and are dropped wholesale (they re-form on the next reads).
    for (auto& [n2, s2] : stores_) {
      s2.cache.erase(key);
      if (n2 == owner_key) {
        s2.replica.erase(key);
        continue;
      }
      const auto r2 = s2.replica.find(key);
      if (r2 == s2.replica.end()) continue;
      ChimeraNode* rn = overlay_.node_by_key(n2);
      if (rn == nullptr || !rn->online()) {
        s2.replica.erase(key);
        continue;
      }
      ++stats_.replication_msgs;
      r2->second = copy;
      pe.replica_at.insert(n2);
    }
    overlay_.simulation().spawn(replicate(*owner, key));
  }

  restore_replication();
}

std::vector<Key> KvStore::primary_keys(Key node) const {
  const auto it = stores_.find(node);
  if (it == stores_.end()) return {};
  return sorted_keys(it->second.primary);  // stable order for callers/tests
}

std::size_t KvStore::total_entries() const {
  std::size_t n = 0;
  for (const auto& [node, store] : stores_) n += store.primary.size();
  return n;
}

bool KvStore::has_cache(Key node, Key key) const {
  const auto it = stores_.find(node);
  return it != stores_.end() && it->second.cache.contains(key);
}

bool KvStore::has_replica(Key node, Key key) const {
  const auto it = stores_.find(node);
  return it != stores_.end() && it->second.replica.contains(key);
}

}  // namespace c4h::kv
