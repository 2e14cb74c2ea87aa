#include "src/federation/geo_federation.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "src/obs/trace.hpp"

namespace c4h::federation {

using vstore::HomeCloud;
using vstore::Neighborhood;
using vstore::ObjectRecord;
using vstore::VStoreNode;

GeoFederation::GeoFederation(vstore::City& city, GeoConfig config)
    : city_(city), config_(config), partitions_(city.neighborhoods().size()) {
  assert(!partitions_.empty() && "construct GeoFederation after the neighborhoods");
  assert(config_.replication >= 1);
}

VStoreNode* GeoFederation::live_node(const Replica& r) {
  if (r.home == nullptr) return nullptr;
  VStoreNode* n = r.home->node_by_key(r.node_key);
  if (n == nullptr || !n->online()) return nullptr;
  return n;
}

sim::Task<> GeoFederation::directory_round_trip(VStoreNode& node, std::size_t partition) {
  auto& net = city_.network();
  const net::NetNodeId shard = city_.neighborhoods().at(partition)->internet_core();
  co_await net.send_message(node.chimera().net_node(), shard, config_.dir_request);
  co_await net.send_message(shard, node.chimera().net_node(), config_.dir_reply);
}

sim::Task<bool> GeoFederation::copy_to(VStoreNode& src, VStoreNode& dst, const std::string& name,
                                       Bytes size) {
  auto read = co_await src.fs().read(name);
  if (!read.ok()) co_return false;
  const net::NetNodeId s = src.chimera().net_node();
  const net::NetNodeId d = dst.chimera().net_node();
  // Wide-area push: windowing is bound by the routed round trip between the
  // two homes (leaf→spine→leaf both ways).
  net::TcpProfile profile = cloud::s3_transport();
  profile.rtt = city_.network().topology().path_latency(s, d) * 2;
  co_await city_.network().transfer(s, d, size, profile);
  auto written = co_await dst.fs().write(name, size, vstore::Bin::voluntary);
  co_return written.ok();
}

sim::Task<std::vector<GeoFederation::Replica>> GeoFederation::place_replicas(
    VStoreNode& src, std::size_t from_hood, const std::string& name, Bytes size, int want,
    std::set<std::size_t> exclude) {
  std::vector<Replica> placed;
  if (want <= 0) co_return placed;

  // Locality-first candidate order: distinct neighborhoods sorted by routed
  // spine latency from the source's neighborhood (index as tiebreak).
  std::vector<std::pair<Duration, std::size_t>> order;
  for (std::size_t h = 0; h < city_.neighborhoods().size(); ++h) {
    if (exclude.contains(h)) continue;
    order.emplace_back(city_.site_latency(from_hood, h), h);
  }
  std::sort(order.begin(), order.end());

  const std::uint64_t key_raw = Key::from_name(name).raw();
  for (const auto& [lat, h] : order) {
    if (static_cast<int>(placed.size()) >= want) break;
    const Neighborhood& hood = *city_.neighborhoods()[h];
    if (hood.homes().empty()) continue;
    // Deterministic probe: home chosen by the object key, node by a second
    // hash stream; skip offline nodes and full voluntary bins.
    VStoreNode* target = nullptr;
    HomeCloud* target_home = nullptr;
    for (std::size_t hp = 0; hp < hood.homes().size() && target == nullptr; ++hp) {
      HomeCloud& home = *hood.homes()[(key_raw + hp) % hood.homes().size()];
      for (std::size_t np = 0; np < home.node_count(); ++np) {
        VStoreNode& cand = home.node((key_raw / 7 + np) % home.node_count());
        if (!cand.online()) continue;
        if (cand.fs().contains(name)) continue;  // already hosts a copy
        if (cand.fs().voluntary_free() < size) continue;
        target = &cand;
        target_home = &home;
        break;
      }
    }
    if (target == nullptr) continue;
    const bool copied = co_await copy_to(src, *target, name, size);
    if (!copied) continue;
    stats_.bytes_replicated += static_cast<double>(size);
    placed.push_back(Replica{target_home, h, target->chimera().id()});
  }
  co_return placed;
}

sim::Task<Result<void>> GeoFederation::publish(HomeCloud& home, VStoreNode& node,
                                               const std::string& object_name) {
  obs::ScopedSpan span(home.trace_ctx(), "fed2.publish");
  span.attr("object", object_name);

  Neighborhood* hood = home.neighborhood();
  assert(hood != nullptr && &hood->city() == &city_ && "home must belong to this city");
  const std::size_t my_hood = hood->city_index();

  // The home's own metadata layer stays the source of truth; the shard
  // only indexes.
  auto raw = co_await home.kv().get(node.chimera(), Key::from_name(object_name));
  if (!raw.ok()) {
    span.set_error("kv: " + raw.error().message);
    co_return raw.error();
  }
  auto rec = ObjectRecord::deserialize(*raw);
  if (!rec.ok()) co_return rec.error();

  const std::size_t part = partition_of(object_name);
  co_await directory_round_trip(node, part);

  auto& shard = partitions_[part];
  const auto it = shard.find(object_name);
  if (it != shard.end() && it->second.owner_home != &home) {
    span.set_error("owned elsewhere");
    co_return Error{Errc::permission_denied, "published by another home: " + object_name};
  }
  if (it != shard.end()) {
    // Owner refresh: new size/location, established replicas kept.
    it->second.size = rec->meta.size;
    if (rec->location.is_cloud()) it->second.s3_url = rec->location.url;
    co_return Result<void>{};
  }

  Entry entry;
  entry.size = rec->meta.size;
  entry.owner_home = &home;
  entry.owner_hood = my_hood;
  if (rec->location.is_cloud()) {
    // Cloud-resident: every neighborhood reaches S3 through the spine
    // already — no home-hosted replicas to place.
    entry.s3_url = rec->location.url;
  } else {
    entry.replicas.push_back(Replica{&home, my_hood, rec->location.node});
    VStoreNode* src = home.node_by_key(rec->location.node);
    if (src != nullptr && src->online() && config_.replication > 1) {
      std::set<std::size_t> exclude{my_hood};
      auto placed = co_await place_replicas(*src, my_hood, object_name, entry.size,
                                            config_.replication - 1, exclude);
      stats_.replicas_placed += placed.size();
      span.attr("replicas", static_cast<std::uint64_t>(placed.size() + 1));
      for (Replica& r : placed) entry.replicas.push_back(r);
    }
  }
  partitions_[part][object_name] = entry;
  ++stats_.published;
  co_return Result<void>{};
}

sim::Task<Result<void>> GeoFederation::withdraw(HomeCloud& home, VStoreNode& node,
                                                const std::string& object_name) {
  obs::ScopedSpan span(home.trace_ctx(), "fed2.withdraw");
  span.attr("object", object_name);
  const std::size_t part = partition_of(object_name);
  co_await directory_round_trip(node, part);
  auto& shard = partitions_[part];
  const auto it = shard.find(object_name);
  if (it == shard.end()) co_return Error{Errc::not_found, "not published: " + object_name};
  if (it->second.owner_home != &home) {
    co_return Error{Errc::permission_denied, "only the publishing home may withdraw"};
  }
  shard.erase(it);
  ++stats_.withdrawn;
  co_return Result<void>{};
}

sim::Task<Result<GeoFetch>> GeoFederation::fetch(HomeCloud& home, VStoreNode& node,
                                                 const std::string& object_name) {
  obs::ScopedSpan span(home.trace_ctx(), "fed2.fetch");
  span.attr("object", object_name);
  auto& sim = city_.sim();
  auto& net = city_.network();
  const auto t0 = sim.now();
  GeoFetch out;

  Neighborhood* my_hood_p = home.neighborhood();
  assert(my_hood_p != nullptr && &my_hood_p->city() == &city_);
  const std::size_t my_hood = my_hood_p->city_index();

  ++stats_.directory_queries;
  const std::size_t part = partition_of(object_name);
  const auto d0 = sim.now();
  co_await directory_round_trip(node, part);
  out.directory_lookup = sim.now() - d0;

  const auto it = partitions_[part].find(object_name);
  if (it == partitions_[part].end()) {
    span.set_error("not in directory");
    ++stats_.fetch_errors;
    co_return Error{Errc::not_found, "not in city directory: " + object_name};
  }
  const Entry entry = it->second;  // copy: awaits below may mutate the shard
  out.size = entry.size;

  // Geo-aware selection over the live copies, cheapest tier first:
  // own home, then own neighborhood, then the wide-area replica with the
  // lowest routed latency (replica order as deterministic tiebreak).
  VStoreNode* src = nullptr;
  const Replica* chosen = nullptr;
  Duration best_lat = Duration::max();
  for (const Replica& r : entry.replicas) {
    VStoreNode* n = live_node(r);
    if (n == nullptr || !n->fs().contains(object_name)) continue;
    if (r.home == &home) {
      src = n;
      chosen = &r;
      out.path = FetchPath::local;
      break;
    }
    if (chosen != nullptr && out.path == FetchPath::neighborhood) continue;
    if (r.hood == my_hood) {
      src = n;
      chosen = &r;
      out.path = FetchPath::neighborhood;
      continue;
    }
    if (chosen == nullptr || out.path == FetchPath::wide_area) {
      const Duration lat = city_.site_latency(my_hood, r.hood);
      if (chosen == nullptr || lat < best_lat) {
        src = n;
        chosen = &r;
        out.path = FetchPath::wide_area;
        best_lat = lat;
      }
    }
  }

  const auto x0 = sim.now();
  if (chosen != nullptr) {
    out.source_home = chosen->home->config().home_name;
    out.source_hood = chosen->hood;
    auto read = co_await src->fs().read(object_name);
    if (!read.ok()) {
      span.set_error("read: " + read.error().message);
      ++stats_.fetch_errors;
      co_return read.error();
    }
    if (out.path == FetchPath::local) {
      if (src != &node) {
        // Same home, different device: one LAN hop.
        co_await net.transfer(src->chimera().net_node(), node.chimera().net_node(), entry.size,
                              home.lan_profile());
      }
    } else {
      // Crosses two access networks; wide-area also rides the spine, which
      // stretches the round trip the window is clocked by.
      co_await net.send_message(node.chimera().net_node(), src->chimera().net_node());
      net::TcpProfile profile = home.config().transport;
      profile.rtt = profile.rtt * 2;
      if (out.path == FetchPath::wide_area) profile.rtt += best_lat * 2;
      co_await net.transfer(src->chimera().net_node(), node.chimera().net_node(), entry.size,
                            profile);
    }
    co_await node.xensocket().transfer(entry.size);
  } else if (!entry.s3_url.empty()) {
    out.path = FetchPath::cloud;
    auto got = co_await home.s3().get(node.chimera().net_node(), entry.s3_url);
    if (!got.ok()) {
      span.set_error("s3: " + got.error().message);
      ++stats_.fetch_errors;
      co_return got.error();
    }
    co_await node.xensocket().transfer(entry.size);
  } else {
    span.set_error("no live replica");
    ++stats_.fetch_errors;
    co_return Error{Errc::unavailable, "no live replica: " + object_name};
  }

  out.transfer = sim.now() - x0;
  out.total = sim.now() - t0;
  span.attr("path", to_string(out.path));
  stats_.latency[static_cast<std::size_t>(out.path)].record(
      static_cast<std::uint64_t>(out.total.count()));
  stats_.bytes_fetched += static_cast<double>(entry.size);
  co_return out;
}

sim::Task<std::size_t> GeoFederation::repair_scan() {
  std::size_t created = 0;
  for (std::size_t part = 0; part < partitions_.size(); ++part) {
    // Snapshot the shard's keys: placement below suspends, and the shard
    // may gain/lose entries while we're away.
    std::vector<std::string> names;
    names.reserve(partitions_[part].size());
    for (const auto& [name, entry] : partitions_[part]) names.push_back(name);

    for (const std::string& name : names) {
      const auto it = partitions_[part].find(name);
      if (it == partitions_[part].end()) continue;  // withdrawn meanwhile
      const Entry entry = it->second;
      if (entry.replicas.empty()) continue;  // cloud-resident: S3 is durable

      std::vector<Replica> live;
      std::set<std::size_t> hosted;
      for (const Replica& r : entry.replicas) {
        hosted.insert(r.hood);
        VStoreNode* n = live_node(r);
        if (n != nullptr && n->fs().contains(name)) live.push_back(r);
      }
      if (live.size() >= static_cast<std::size_t>(config_.replication)) continue;
      if (live.empty()) {
        // Nothing to heal from (until a hosting node restarts — its disk
        // survives — or unless the cloud holds a copy).
        ++stats_.repair_failures;
        continue;
      }
      obs::ScopedSpan span(entry.owner_home->trace_ctx(), "fed2.repair");
      span.attr("object", name);
      VStoreNode* src = live_node(live.front());
      if (src == nullptr) continue;  // lost it between the check and now
      const int want = config_.replication - static_cast<int>(live.size());
      auto placed = co_await place_replicas(*src, live.front().hood, name, entry.size, want,
                                            std::move(hosted));

      // Re-find: the entry may have been withdrawn or refreshed while the
      // copies were in flight. New set = copies live now + just placed
      // (dead replicas are superseded and dropped).
      const auto again = partitions_[part].find(name);
      if (again == partitions_[part].end()) continue;
      std::vector<Replica> next;
      for (const Replica& r : again->second.replicas) {
        VStoreNode* n = live_node(r);
        if (n != nullptr && n->fs().contains(name)) next.push_back(r);
      }
      for (Replica& r : placed) next.push_back(r);
      again->second.replicas = std::move(next);
      stats_.repairs += placed.size();
      created += placed.size();
    }
  }
  co_return created;
}

std::size_t GeoFederation::live_replicas(const std::string& object_name) const {
  const std::size_t part = partition_of(object_name);
  const auto it = partitions_[part].find(object_name);
  if (it == partitions_[part].end()) return 0;
  std::size_t live = 0;
  for (const Replica& r : it->second.replicas) {
    VStoreNode* n = live_node(r);
    if (n != nullptr && n->fs().contains(object_name)) ++live;
  }
  return live;
}

std::size_t GeoFederation::directory_size() const {
  std::size_t total = 0;
  for (const auto& shard : partitions_) total += shard.size();
  return total;
}

std::string GeoFederation::fingerprint() const {
  std::ostringstream os;
  for (std::size_t part = 0; part < partitions_.size(); ++part) {
    for (const auto& [name, e] : partitions_[part]) {
      os << part << ':' << name << ':' << e.size << ':' << e.owner_hood << ':' << e.s3_url;
      for (const Replica& r : e.replicas) {
        os << '|' << r.hood << '/' << r.home->config().home_name << '/' << r.node_key.to_string();
      }
      os << ';';
    }
  }
  return os.str();
}

}  // namespace c4h::federation
