// The benchmark's own replayer: issues every op through the public
// VStoreNode / GeoFederation calls and records its outcome and latency.
#include <cassert>

#include "perfbench/perfbench.hpp"
#include "src/workload/popularity.hpp"

namespace c4h::perfbench {

using workload::OpKind;
using workload::ScheduledOp;

namespace {

OpClass class_of(OpKind k) {
  switch (k) {
    case OpKind::store: return OpClass::store;
    case OpKind::fetch: return OpClass::fetch;
    case OpKind::process:
    case OpKind::fetch_process: return OpClass::process;
  }
  return OpClass::fetch;
}

vstore::ObjectMeta meta_of(const workload::ObjectSpec& obj, const std::string& name,
                           const workload::TenantSpec& owner) {
  vstore::ObjectMeta meta;
  meta.name = name;
  meta.type = obj.type;
  meta.size = obj.size;
  if (obj.is_private) meta.tags.push_back("private");
  meta.owner = owner.principal.user;
  meta.acl = owner.acl;
  return meta;
}

}  // namespace

Replayer::Replayer(Deployment& d, const WorkloadDef& w, const workload::Schedule& s)
    : d_(d), w_(w), s_(s), done_(d.sim()) {
  const auto& tenants = w_.spec.tenants;
  const std::size_t homes = d_.homes().size();
  const std::size_t per_home = tenants.size() / homes;
  assert(per_home * homes == tenants.size());
  tenant_nodes_.resize(tenants.size());
  rr_.assign(tenants.size(), 0);
  fetchable_ = workload::fetchable_sets(w_.spec, s_.objects);
  own_.resize(tenants.size());
  for (std::uint32_t i = 0; i < s_.objects.size(); ++i) own_[s_.objects[i].tenant].push_back(i);

  for (std::uint32_t t = 0; t < tenants.size(); ++t) {
    vstore::HomeCloud& home = *d_.homes()[home_index(t)];
    const std::size_t slot = t / homes;
    for (std::size_t i = 0; i < home.node_count(); ++i) {
      if (i % per_home != slot) continue;
      tenant_nodes_[t].push_back(i);
      home.node(i).set_principal(tenants[t].principal);
    }
    assert(!tenant_nodes_[t].empty());
  }
}

std::size_t Replayer::home_index(std::uint32_t tenant) const {
  return tenant % d_.homes().size();
}

vstore::VStoreNode& Replayer::pick_node(std::uint32_t tenant) {
  vstore::HomeCloud& home = *d_.homes()[home_index(tenant)];
  const auto& nodes = tenant_nodes_[tenant];
  const std::size_t i = nodes[rr_[tenant]];
  rr_[tenant] = (rr_[tenant] + 1) % nodes.size();
  return home.node(i);
}

obs::SpanId Replayer::next_span(vstore::HomeCloud& home) const {
  return home.tracer().enabled() ? home.tracer().size() + 1 : 0;
}

sim::Task<> Replayer::preload() {
  for (vstore::HomeCloud* home : d_.homes()) {
    for (const services::ServiceProfile& p : w_.services) {
      home->registry().add_profile(p);
      for (std::size_t i = 0; i < home->node_count(); ++i) home->node(i).deploy_service(p);
    }
    for (std::size_t i = 0; i < home->node_count(); ++i) {
      auto published = co_await home->node(i).publish_services();
      if (!published.ok()) ++preload_failures_;
    }
  }
  for (const workload::ObjectSpec& o : s_.objects) {
    vstore::HomeCloud& home = *d_.homes()[home_index(o.tenant)];
    OpSample ignored;
    const Errc err = co_await store(home, pick_node(o.tenant), o, o.name,
                                    w_.spec.tenants[o.tenant], {}, ignored);
    if (err != Errc::ok) ++preload_failures_;
  }
}

sim::Task<Errc> Replayer::store(vstore::HomeCloud& home, vstore::VStoreNode& node,
                                const workload::ObjectSpec& obj, const std::string& name,
                                const workload::TenantSpec& issuer, obs::Ctx ctx, OpSample& s) {
  vstore::StoreOptions opts;
  opts.policy = issuer.store_policy;
  opts.decision = issuer.decision;
  // already_exists only means this node created the object before; the
  // overwrite itself is store_object's.
  auto created = co_await node.create_object(meta_of(obj, name, w_.spec.tenants[obj.tenant]), ctx);
  if (!created.ok() && created.code() != Errc::already_exists) co_return created.code();
  auto stored = co_await node.store_object(name, opts, ctx);
  if (!stored.ok()) co_return stored.code();
  if (d_.fed() == nullptr) co_return Errc::ok;
  if (const obs::SpanId id = next_span(home); id != 0) s.linked.push_back(id);
  auto published = co_await d_.fed()->publish(home, node, name);
  co_return published.code();
}

sim::Task<> Replayer::execute(OpKind kind, std::uint32_t tenant, std::uint32_t object,
                              TimePoint due) {
  const workload::ObjectSpec& obj = s_.objects[object];
  const workload::TenantSpec& issuer = w_.spec.tenants[tenant];
  const std::size_t home_i = home_index(tenant);
  vstore::HomeCloud& home = *d_.homes()[home_i];
  vstore::VStoreNode& node = pick_node(tenant);
  sim::Simulation& sim = d_.sim();

  OpSample s;
  s.cls = class_of(kind);
  s.home = home_i;
  obs::ScopedSpan op(home.trace_ctx(), std::string("op.") + to_string(s.cls));
  s.span = home.tracer().enabled() ? home.tracer().size() : 0;

  Errc err = Errc::ok;
  switch (kind) {
    case OpKind::store: {
      const std::string name =
          w_.stores_add_new ? obj.name + "/v" + std::to_string(added_++) : obj.name;
      err = co_await store(home, node, obj, name, issuer, op.ctx(), s);
      break;
    }
    case OpKind::fetch: {
      if (federation::GeoFederation* fed = d_.fed(); fed != nullptr) {
        if (const obs::SpanId id = next_span(home); id != 0) s.linked.push_back(id);
        auto fetched = co_await fed->fetch(home, node, obj.name);
        if (!fetched.ok()) {
          err = fetched.code();
          break;
        }
        if (fetched->size != obj.size) ++wrong_;
        s.tier = static_cast<int>(fetched->path);
        s.dir_lookup_ns = fetched->directory_lookup.count();
      } else {
        auto fetched = co_await node.fetch_object(obj.name, op.ctx());
        if (!fetched.ok()) {
          err = fetched.code();
          break;
        }
        if (fetched->size != obj.size) ++wrong_;
      }
      break;
    }
    case OpKind::process: {
      auto processed =
          co_await node.process(obj.name, *issuer.service, issuer.decision, std::nullopt, op.ctx());
      err = processed.code();
      break;
    }
    case OpKind::fetch_process: {
      auto processed =
          co_await node.fetch_process(obj.name, *issuer.service, issuer.decision, op.ctx());
      err = processed.code();
      break;
    }
  }
  if (err != Errc::ok) op.set_error(to_string(err));
  op.end();
  s.err = err;
  s.latency_ns = (sim.now() - start_ - due).count();
  samples_.push_back(std::move(s));
}

sim::Task<> Replayer::tracked(ScheduledOp op) {
  co_await execute(op.kind, op.tenant, op.object, op.at);
  --pending_;
  if (pending_ == 0 && draining_) done_.fire();
}

sim::Task<> Replayer::replay() {
  sim::Simulation& sim = d_.sim();
  for (const ScheduledOp& op : s_.ops) {
    const TimePoint at = start_ + op.at;
    if (at > sim.now()) co_await sim.delay(at - sim.now());
    ++pending_;
    sim.spawn(tracked(op));
  }
  draining_ = true;
  if (pending_ > 0) co_await done_.wait();
}

sim::Task<> Replayer::closed_client(std::uint32_t tenant, std::uint64_t seed) {
  const workload::TenantSpec& ts = w_.spec.tenants[tenant];
  Rng rng{seed};
  const workload::ZipfTable own_zipf{std::max<std::size_t>(own_[tenant].size(), 1), ts.zipf_s};
  const workload::ZipfTable fetch_zipf{std::max<std::size_t>(fetchable_[tenant].size(), 1),
                                       ts.zipf_s};
  sim::Simulation& sim = d_.sim();
  const TimePoint end = start_ + w_.spec.duration;
  while (sim.now() < end) {
    const OpKind kind = ts.mix.sample(rng);
    const std::uint32_t object = kind == OpKind::store
                                     ? own_[tenant][own_zipf.sample(rng)]
                                     : fetchable_[tenant][fetch_zipf.sample(rng)];
    const TimePoint due = sim.now() - start_;
    co_await execute(kind, tenant, object, due);
    co_await sim.delay(from_seconds(rng.exponential(to_seconds(ts.closed.mean_think))));
  }
}

sim::Task<> Replayer::run() {
  start_ = d_.sim().now();
  // Client seeds are drawn up front in tenant/client order, so they do not
  // depend on completion interleaving.
  Rng seeder{w_.spec.seed ^ 0xC10D400Eull};
  std::vector<sim::Task<>> tasks;
  tasks.push_back(replay());
  for (std::uint32_t t = 0; t < w_.spec.tenants.size(); ++t) {
    for (int c = 0; c < w_.spec.tenants[t].closed.clients; ++c) {
      tasks.push_back(closed_client(t, seeder.next()));
    }
  }
  co_await sim::when_all(d_.sim(), std::move(tasks));
}

}  // namespace c4h::perfbench
