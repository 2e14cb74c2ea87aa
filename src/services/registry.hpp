// Service discovery through the key-value store (§IV "Metadata management
// and service discovery"): every node registers its deployed services under
// key = hash(service name ++ service id); the value is the list of nodes
// currently offering the service. Profiles themselves are known a priori.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kv/kvstore.hpp"
#include "src/services/service.hpp"

namespace c4h::services {

class ServiceRegistry {
 public:
  explicit ServiceRegistry(kv::KvStore& kv) : kv_(kv) {}

  /// Makes a profile known (the a-priori deployment-time step) and hashes
  /// its registry key, once.
  void add_profile(ServiceProfile profile) {
    std::string key_name = profile.registry_key_name();
    const Key key = hash_key(key_name);
    profiles_.emplace(std::move(key_name), Known{std::move(profile), key});
  }

  const ServiceProfile* profile(const std::string& name, std::uint32_t id) const {
    return profile_by_key_name(name + "#" + std::to_string(id));
  }

  const ServiceProfile* profile_by_key_name(const std::string& key_name) const {
    const auto it = profiles_.find(key_name);
    return it != profiles_.end() ? &it->second.profile : nullptr;
  }

  /// The key the service's node list lives under: the hash of "service:" ++
  /// name ++ "#" ++ id, computed when the profile was added (and on every
  /// call for a profile never added).
  Key registry_key(const ServiceProfile& p) const {
    const std::string key_name = p.registry_key_name();
    const auto it = profiles_.find(key_name);
    return it != profiles_.end() ? it->second.key : hash_key(key_name);
  }

  /// Registers `node` as offering the service (read-modify-write of the node
  /// list in the KV store).
  [[nodiscard]] sim::Task<Result<void>> register_node(overlay::ChimeraNode& node, const ServiceProfile& p) {
    const Key k = registry_key(p);
    std::vector<Key> nodes;
    auto existing = co_await kv_.get(node, k);
    if (existing.ok()) {
      auto parsed = parse_nodes(*existing);
      if (!parsed.ok()) co_return parsed.error();
      nodes = std::move(*parsed);
    }
    if (std::find(nodes.begin(), nodes.end(), node.id()) == nodes.end()) {
      nodes.push_back(node.id());
    }
    co_return co_await kv_.put(node, k, encode_nodes(nodes));
  }

  [[nodiscard]] sim::Task<Result<void>> deregister_node(overlay::ChimeraNode& node, const ServiceProfile& p) {
    const Key k = registry_key(p);
    auto existing = co_await kv_.get(node, k);
    if (!existing.ok()) co_return existing.error();
    auto parsed = parse_nodes(*existing);
    if (!parsed.ok()) co_return parsed.error();
    std::erase(*parsed, node.id());
    co_return co_await kv_.put(node, k, encode_nodes(*parsed));
  }

  /// Nodes currently offering the service, looked up from `origin`.
  [[nodiscard]] sim::Task<Result<std::vector<Key>>> lookup(overlay::ChimeraNode& origin,
                                             const ServiceProfile& p) {
    auto raw = co_await kv_.get(origin, registry_key(p));
    if (!raw.ok()) co_return raw.error();
    co_return parse_nodes(*raw);
  }

 private:
  struct Known {
    ServiceProfile profile;
    Key key;  // registry_key(profile)
  };

  static Key hash_key(const std::string& key_name) { return Key::from_name("service:" + key_name); }

  static Buffer encode_nodes(const std::vector<Key>& nodes) {
    Writer w{sizeof(std::uint32_t) + nodes.size() * sizeof(std::uint64_t)};
    w.write_vector(nodes, [](Writer& ww, Key k) { ww.write(k.raw()); });
    return std::move(w).take();
  }

  static Result<std::vector<Key>> parse_nodes(const Buffer& b) {
    Reader r{b};
    return r.read_vector<Key>([](Reader& rr) -> Result<Key> {
      auto raw = rr.read<std::uint64_t>();
      if (!raw) return raw.error();
      return Key{*raw};
    });
  }

  kv::KvStore& kv_;
  std::unordered_map<std::string, Known> profiles_;  // by registry_key_name()
};

}  // namespace c4h::services
