#include "src/workload/workload.hpp"

#include <algorithm>
#include <cassert>

namespace c4h::workload {

namespace {

/// Indices of each tenant's own catalog objects, in catalog order.
std::vector<std::vector<std::uint32_t>> own_sets(std::size_t tenants,
                                                 const std::vector<ObjectSpec>& objects) {
  std::vector<std::vector<std::uint32_t>> own(tenants);
  for (std::uint32_t i = 0; i < objects.size(); ++i) {
    own[objects[i].tenant].push_back(i);
  }
  return own;
}

}  // namespace

std::string Schedule::fingerprint() const {
  std::string out;
  out.reserve(objects.size() * 24 + ops.size() * 24);
  for (const ObjectSpec& o : objects) {
    out += o.name;
    out += '|';
    out += o.type;
    out += '|';
    out += std::to_string(o.size);
    out += '|';
    out += std::to_string(o.tenant);
    out += o.is_private ? "|p\n" : "|-\n";
  }
  for (const ScheduledOp& op : ops) {
    out += std::to_string(op.at.count());
    out += ':';
    out += std::to_string(op.tenant);
    out += ':';
    out += to_string(op.kind);
    out += ':';
    out += std::to_string(op.object);
    out += '\n';
  }
  return out;
}

std::size_t Schedule::count(OpKind k) const {
  std::size_t n = 0;
  for (const ScheduledOp& op : ops) n += (op.kind == k);
  return n;
}

std::size_t Schedule::count_tenant(std::uint32_t t) const {
  std::size_t n = 0;
  for (const ScheduledOp& op : ops) n += (op.tenant == t);
  return n;
}

std::vector<std::vector<std::uint32_t>> fetchable_sets(
    const WorkloadSpec& spec, const std::vector<ObjectSpec>& objects) {
  const auto own = own_sets(spec.tenants.size(), objects);
  std::vector<std::vector<std::uint32_t>> fetchable(spec.tenants.size());
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    fetchable[t] = own[t];
    for (const std::string& other : spec.tenants[t].fetch_from) {
      for (std::size_t u = 0; u < spec.tenants.size(); ++u) {
        if (spec.tenants[u].name == other) {
          fetchable[t].insert(fetchable[t].end(), own[u].begin(), own[u].end());
        }
      }
    }
  }
  return fetchable;
}

Schedule generate(const WorkloadSpec& spec) {
  Schedule s;
  Rng root{spec.seed};

  // Catalog first: one forked stream per tenant, in declaration order, so a
  // tenant's objects do not depend on the other tenants' parameters.
  for (std::uint32_t t = 0; t < spec.tenants.size(); ++t) {
    const TenantSpec& ts = spec.tenants[t];
    Rng rng = root.fork();
    assert(ts.size.min <= ts.size.max);
    for (std::size_t i = 0; i < ts.object_count; ++i) {
      ObjectSpec o;
      o.name = ts.name + "/obj-" + std::to_string(i);
      o.type = ts.object_type;
      o.size = ts.size.min + rng.below(ts.size.max - ts.size.min + 1);
      o.tenant = t;
      o.is_private = ts.private_objects;
      s.objects.push_back(std::move(o));
    }
  }

  const auto own = own_sets(spec.tenants.size(), s.objects);
  const auto fetchable = fetchable_sets(spec, s.objects);
  const RateModulation mod{spec.diurnal, spec.flash_crowds};

  // Open-loop streams, one per tenant, merged by (time, tenant, sequence).
  struct Tagged {
    ScheduledOp op;
    std::uint32_t seq;
  };
  std::vector<Tagged> merged;
  for (std::uint32_t t = 0; t < spec.tenants.size(); ++t) {
    const TenantSpec& ts = spec.tenants[t];
    Rng arr_rng = root.fork();
    Rng op_rng = root.fork();
    if (ts.arrival.rate_per_sec <= 0.0) continue;
    assert(ts.mix.total() > 0.0);
    const ZipfTable own_zipf{std::max<std::size_t>(own[t].size(), 1), ts.zipf_s};
    const ZipfTable fetch_zipf{std::max<std::size_t>(fetchable[t].size(), 1), ts.zipf_s};
    std::uint32_t seq = 0;
    TimePoint at{};
    for (;;) {
      at += next_gap(ts.arrival, mod, at, arr_rng);
      if (at >= spec.duration) break;
      ScheduledOp op;
      op.at = at;
      op.tenant = t;
      op.kind = ts.mix.sample(op_rng);
      if (op.kind == OpKind::store) {
        assert(!own[t].empty());
        op.object = own[t][own_zipf.sample(op_rng)];
      } else {
        assert(!fetchable[t].empty());
        op.object = fetchable[t][fetch_zipf.sample(op_rng)];
      }
      merged.push_back(Tagged{op, seq++});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.op.at != b.op.at) return a.op.at < b.op.at;
    if (a.op.tenant != b.op.tenant) return a.op.tenant < b.op.tenant;
    return a.seq < b.seq;
  });
  s.ops.reserve(merged.size());
  for (Tagged& m : merged) s.ops.push_back(m.op);
  return s;
}

Schedule from_trace(const trace::TraceWorkload& w, int clients, double rate_per_sec,
                    std::uint64_t seed) {
  assert(clients > 0 && rate_per_sec > 0.0);
  Schedule s;
  s.objects.reserve(w.files.size());
  for (std::uint32_t i = 0; i < w.files.size(); ++i) {
    const trace::TraceFile& f = w.files[i];
    ObjectSpec o;
    o.name = f.name;
    o.type = f.type;
    o.size = f.size;
    o.tenant = i % static_cast<std::uint32_t>(clients);
    o.is_private = f.is_private();
    s.objects.push_back(std::move(o));
  }
  Rng rng{seed};
  TimePoint at{};
  s.ops.reserve(w.ops.size());
  for (const trace::TraceOp& top : w.ops) {
    at += from_seconds(rng.exponential(1.0 / rate_per_sec));
    ScheduledOp op;
    op.at = at;
    op.tenant = static_cast<std::uint32_t>(top.client % clients);
    op.kind = top.kind == trace::OpKind::store ? OpKind::store : OpKind::fetch;
    op.object = static_cast<std::uint32_t>(top.file);
    s.ops.push_back(op);
  }
  return s;
}

std::uint64_t DriveResult::issued() const {
  std::uint64_t n = 0;
  for (const TenantStats& t : tenants) n += t.issued_total();
  return n;
}

std::uint64_t DriveResult::ok() const {
  std::uint64_t n = 0;
  for (const TenantStats& t : tenants) n += t.ok_total();
  return n;
}

std::uint64_t DriveResult::failed() const {
  std::uint64_t n = 0;
  for (const TenantStats& t : tenants) n += t.failed;
  return n;
}

std::uint64_t DriveResult::denied() const {
  std::uint64_t n = 0;
  for (const TenantStats& t : tenants) n += t.denied;
  return n;
}

std::uint64_t DriveResult::wrong() const {
  std::uint64_t n = 0;
  for (const TenantStats& t : tenants) n += t.wrong;
  return n;
}

Driver::Driver(vstore::HomeCloud& hc, WorkloadSpec spec)
    : Driver({&hc}, hc.sim(), hc.metrics(), "c4h.workload.", nullptr, std::move(spec)) {}

Driver::Driver(vstore::City& city, federation::GeoFederation& fed, WorkloadSpec spec)
    : Driver(city.all_homes(), city.sim(), city.metrics(), "c4h.workload.fed_", &fed,
             std::move(spec)) {}

Driver::Driver(std::vector<vstore::HomeCloud*> homes, sim::Simulation& sim,
               obs::Registry& metrics, std::string metric_prefix,
               federation::GeoFederation* fed, WorkloadSpec spec)
    : homes_(std::move(homes)),
      sim_(sim),
      metrics_(metrics),
      metric_prefix_(std::move(metric_prefix)),
      fed_(fed),
      spec_(std::move(spec)),
      done_(sim) {
  const std::size_t tenants = spec_.tenants.size();
  assert(tenants > 0 && !homes_.empty());
  result_.tenants.resize(tenants);
  tenant_nodes_.resize(tenants);
  issue_rr_.assign(tenants, 0);
  for (std::size_t t = 0; t < tenants; ++t) {
    result_.tenants[t].name = spec_.tenants[t].name;
  }
  // Tenant t lives in home t mod H; home h's nodes are dealt round-robin
  // among its tenants h, h + H, h + 2H, ..., each node's application VM
  // acting as that tenant's principal.
  for (std::size_t h = 0; h < homes_.size() && h < tenants; ++h) {
    vstore::HomeCloud& home = *homes_[h];
    const std::size_t living_here = (tenants - h - 1) / homes_.size() + 1;
    assert(home.node_count() >= living_here);
    for (std::size_t i = 0; i < home.node_count(); ++i) {
      const std::size_t t = h + (i % living_here) * homes_.size();
      tenant_nodes_[t].push_back(&home.node(i));
      home.node(i).set_principal(spec_.tenants[t].principal);
    }
  }
}

vstore::VStoreNode* Driver::pick_node(std::uint32_t tenant) {
  const auto& nodes = tenant_nodes_[tenant];
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    vstore::VStoreNode* n = nodes[(issue_rr_[tenant] + k) % nodes.size()];
    if (n->online()) {
      issue_rr_[tenant] = (issue_rr_[tenant] + k + 1) % nodes.size();
      return n;
    }
  }
  return nullptr;
}

obs::LogHistogram& Driver::latency_histogram(std::uint32_t tenant, OpKind kind) {
  return metrics_.histogram(metric_prefix_ + to_string(kind) + ".latency_ns{tenant=" +
                            spec_.tenants[tenant].name + "}");
}

sim::Task<Errc> Driver::store(vstore::VStoreNode& n, std::uint32_t tenant,
                              const ObjectSpec& obj) {
  // Every store keeps the catalog identity (the owner tenant's meta and the
  // object's fixed size), so `acked` sizes stay the ground truth.
  const TenantSpec& issuer = spec_.tenants[tenant];
  const TenantSpec& owner = spec_.tenants[obj.tenant];
  vstore::ObjectMeta meta;
  meta.name = obj.name;
  meta.type = obj.type;
  meta.size = obj.size;
  if (obj.is_private) meta.tags.push_back("private");
  meta.owner = owner.principal.user;
  meta.acl = owner.acl;
  vstore::StoreOptions opts;
  opts.policy = issuer.store_policy;
  opts.decision = issuer.decision;
  // already_exists just means this node created the object before (a
  // re-store from the same node); the overwrite path is store_object.
  auto created = co_await n.create_object(meta);
  if (!created.ok() && created.code() != Errc::already_exists) co_return created.code();
  auto stored = co_await n.store_object(obj.name, opts);
  if (!stored.ok()) co_return stored.code();
  if (fed_ != nullptr) {
    auto published = co_await fed_->publish(home_of(tenant), n, obj.name);
    if (!published.ok()) co_return published.code();
  }
  result_.acked[obj.name] = obj.size;
  co_return Errc::ok;
}

sim::Task<> Driver::preload(const Schedule& s) {
  for (const ObjectSpec& o : s.objects) {
    vstore::VStoreNode* n = pick_node(o.tenant);
    if (n == nullptr) continue;
    co_await store(*n, o.tenant, o);  // a failure only leaves `o` out of `acked`
  }
}

sim::Task<> Driver::execute(const ScheduledOp& op, const Schedule& s) {
  const ObjectSpec& obj = s.objects[op.object];
  const TenantSpec& issuer = spec_.tenants[op.tenant];
  TenantStats& stats = result_.tenants[op.tenant];

  const bool runs_service = op.kind == OpKind::process || op.kind == OpKind::fetch_process;
  vstore::VStoreNode* n = pick_node(op.tenant);
  if (n == nullptr || (runs_service && !issuer.service.has_value())) {
    ++stats.skipped;
    co_return;
  }
  const auto kind_idx = static_cast<std::size_t>(op.kind);
  ++stats.issued[kind_idx];
  const TimePoint t0 = sim_.now();

  Errc err = Errc::ok;
  switch (op.kind) {
    case OpKind::store:
      err = co_await store(*n, op.tenant, obj);
      break;
    case OpKind::fetch: {
      Bytes size = 0;
      if (fed_ == nullptr) {
        auto fetched = co_await n->fetch_object(obj.name);
        if (!fetched.ok()) {
          err = fetched.code();
          break;
        }
        size = fetched->size;
      } else {
        vstore::HomeCloud& home = home_of(op.tenant);
        auto fetched = co_await fed_->fetch(home, *n, obj.name);
        if (!fetched.ok()) {
          err = fetched.code();
          break;
        }
        size = fetched->size;
        if (home_of(obj.tenant).neighborhood() != home.neighborhood()) {
          ++result_.cross_hood_fetches;
        }
      }
      if (size != obj.size) ++stats.wrong;
      break;
    }
    case OpKind::process: {
      auto processed = co_await n->process(obj.name, *issuer.service, issuer.decision);
      if (!processed.ok()) err = processed.code();
      break;
    }
    case OpKind::fetch_process: {
      auto processed = co_await n->fetch_process(obj.name, *issuer.service, issuer.decision);
      if (!processed.ok()) err = processed.code();
      break;
    }
  }

  if (err == Errc::ok) {
    ++stats.ok[kind_idx];
    latency_histogram(op.tenant, op.kind)
        .record(static_cast<std::uint64_t>((sim_.now() - t0).count()));
  } else if (err == Errc::permission_denied) {
    ++stats.denied;
  } else {
    ++stats.failed;
    ++result_.errors[to_string(err)];
  }
}

sim::Task<> Driver::tracked(ScheduledOp op, const Schedule& s) {
  co_await execute(op, s);
  --pending_;
  if (pending_ == 0 && draining_) done_.fire();
}

sim::Task<> Driver::replay(const Schedule& s) {
  for (const ScheduledOp& op : s.ops) {
    const TimePoint at = start_time_ + op.at;
    if (at > sim_.now()) co_await sim_.delay(at - sim_.now());
    ++pending_;
    sim_.spawn(tracked(op, s));
  }
  draining_ = true;
  if (pending_ > 0) co_await done_.wait();
}

sim::Task<> Driver::closed_client(std::uint32_t tenant, std::uint64_t client_seed,
                                  const Schedule& s) {
  const TenantSpec& ts = spec_.tenants[tenant];
  Rng rng{client_seed};
  const auto own = own_sets(spec_.tenants.size(), s.objects);
  const ZipfTable own_zipf{std::max<std::size_t>(own[tenant].size(), 1), ts.zipf_s};
  const ZipfTable fetch_zipf{std::max<std::size_t>(fetchable_[tenant].size(), 1), ts.zipf_s};
  while (sim_.now() < end_time_) {
    ScheduledOp op;
    op.at = sim_.now() - start_time_;
    op.tenant = tenant;
    op.kind = ts.mix.sample(rng);
    if (op.kind == OpKind::store) {
      if (own[tenant].empty()) co_return;
      op.object = own[tenant][own_zipf.sample(rng)];
    } else {
      if (fetchable_[tenant].empty()) co_return;
      op.object = fetchable_[tenant][fetch_zipf.sample(rng)];
    }
    co_await execute(op, s);
    co_await sim_.delay(from_seconds(rng.exponential(to_seconds(ts.closed.mean_think))));
  }
}

sim::Task<> Driver::drive(const Schedule& s) {
  fetchable_ = fetchable_sets(spec_, s.objects);
  co_await preload(s);
  start_time_ = sim_.now();
  end_time_ = start_time_ + spec_.duration;

  // Client seeds are derived up front, in tenant/client order, so the seed
  // stream is independent of completion interleaving.
  Rng seeder{spec_.seed ^ 0xC10D400Eull};
  std::vector<sim::Task<>> tasks;
  tasks.push_back(replay(s));
  for (std::uint32_t t = 0; t < spec_.tenants.size(); ++t) {
    for (int c = 0; c < spec_.tenants[t].closed.clients; ++c) {
      tasks.push_back(closed_client(t, seeder.next(), s));
    }
  }
  co_await sim::when_all(sim_, std::move(tasks));
}

void emit_tail_series(obs::BenchReport& report, const obs::Registry& registry) {
  const obs::Snapshot snap = registry.snapshot();
  const std::string prefix = "c4h.workload.";
  const std::string tenant_tag = ".latency_ns{tenant=";
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t tag = name.find(tenant_tag);
    if (tag == std::string::npos || name.back() != '}') continue;
    const std::string kind = name.substr(prefix.size(), tag - prefix.size());
    const std::string tenant =
        name.substr(tag + tenant_tag.size(), name.size() - 1 - tag - tenant_tag.size());
    obs::add_latency_tails(report, tenant, "workload." + kind + ".latency", hist);
  }
}

}  // namespace c4h::workload
