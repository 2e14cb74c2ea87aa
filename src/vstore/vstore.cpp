#include "src/vstore/vstore.hpp"

#include "src/sim/retry.hpp"
#include "src/vstore/home_cloud.hpp"

namespace c4h::vstore {

namespace {

// A command round trip on the shared-memory channel: sub-millisecond
// handling, paid per request and per reply, plus 40 ns per wire byte. Every
// command the node sends carries no data, and the codec's other fields are
// fixed-width, so every command is the same 25 bytes (under the paper's ~50)
// and the cost is computed once.
const Duration kCommandRoundTrip =
    microseconds(300) + nanoseconds(static_cast<std::int64_t>(CommandPacket{}.serialize().size()) * 40);

}  // namespace

VStoreNode::VStoreNode(HomeCloud& cloud, overlay::ChimeraNode& chimera, vmm::Domain& app_domain,
                       ObjectFsConfig fs_config, vmm::XenSocketConfig xs_config)
    : cloud_(cloud),
      chimera_(chimera),
      app_domain_(app_domain),
      fs_(cloud.sim(), fs_config),
      xensocket_(cloud.sim(), xs_config),
      rng_(cloud.sim().rng().fork()) {
  principal_ = Principal{chimera.name(), TrustLevel::trusted};
  mon::BinWatcher watcher;
  watcher.mandatory_free = [this] { return fs_.mandatory_free(); };
  watcher.voluntary_free = [this] { return fs_.voluntary_free(); };
  monitor_ = std::make_unique<mon::ResourceMonitor>(chimera_, cloud_.kv(), watcher,
                                                    cloud.config().monitor);
  monitor_->set_uplink_estimate(cloud.config().lan_rate);
}

obs::Ctx VStoreNode::op_ctx(obs::Ctx parent) {
  return parent.on() ? parent : cloud_.trace_ctx();
}

VStoreNode::CommandRoundTrip VStoreNode::command_round_trip(obs::Ctx ctx) {
  return {{cloud_.sim(), kCommandRoundTrip}, obs::ScopedSpan(ctx, "vstore.command")};
}

sim::Task<Result<void>> VStoreNode::publish_services() {
  for (const auto& key_name : deployed_) {
    const auto* p = cloud_.registry().profile_by_key_name(key_name);
    if (p == nullptr) co_return Error{Errc::invalid_argument, "unknown profile " + key_name};
    auto r = co_await cloud_.registry().register_node(chimera_, *p);
    if (!r.ok()) co_return r;
  }
  co_return Result<void>{};
}

sim::Task<Result<void>> VStoreNode::create_object(ObjectMeta meta, obs::Ctx parent) {
  obs::ScopedSpan sp(op_ctx(parent), "vstore.create");
  sp.attr("object", meta.name);
  co_await command_round_trip(sp.ctx());
  meta.created_at_ns = cloud_.sim().now().count();
  if (created_.contains(meta.name)) {
    sp.set_error("already created");
    co_return Error{Errc::already_exists, "object already created: " + meta.name};
  }
  created_.emplace(meta.name, std::move(meta));
  co_return Result<void>{};
}

sim::Task<Result<ObjectLocation>> VStoreNode::place_object(const ObjectMeta& meta,
                                                           StoreOptions& opts,
                                                           StoreOutcome& out, obs::Ctx ctx) {
  auto& sim = cloud_.sim();
  auto& net = cloud_.network();

  obs::ScopedSpan sp(ctx, "vstore.place");
  const TimePoint d0 = sim.now();
  StoreTarget target = opts.policy.target_for(meta);
  if (opts.decision == DecisionPolicy::learned && target == StoreTarget::remote_cloud &&
      cloud_.placement_engine().veto_cloud_store(meta.size)) {
    // The engine predicts this upload would blow the latency budget at the
    // currently observed WAN rate: keep the object home instead.
    target = StoreTarget::local;
  }
  if (target == StoreTarget::local && fs_.mandatory_free() < meta.size) {
    // "In cases where the mandatory bin is full ... the data is stored
    // elsewhere, either in the voluntary resources available on other nodes
    // in the home environment, or in a remote cloud."
    target = StoreTarget::home_any;
  }

  // chimeraGetDecision over the other home nodes' published records. Invoked
  // lazily: the home_any path needs it up front, and a failed local write
  // needs it to re-route mid-placement.
  auto pick_home = [this, &meta, &opts](obs::Ctx dctx) -> sim::Task<std::optional<Key>> {
    obs::ScopedSpan dsp(dctx, "vstore.decision");
    std::vector<CandidateInfo> cands;
    for (overlay::ChimeraNode* member : cloud_.overlay().live_members()) {
      if (member == &chimera_) continue;
      auto rec = co_await mon::fetch_record(cloud_.kv(), chimera_, member->id(), dsp.ctx());
      if (!rec.ok()) continue;
      if (rec->voluntary_bin_free < meta.size) continue;
      VStoreNode* vn = cloud_.node_by_key(member->id());
      if (vn == nullptr || !vn->online()) continue;
      CandidateInfo ci;
      ci.site = ExecSite{ExecSite::Kind::home_node, member->id()};
      ci.move_in = cloud_.estimate_move(ExecSite{ExecSite::Kind::home_node, chimera_.id()},
                                        ci.site, meta.size);
      ci.exec_estimate = transfer_time(meta.size, vn->fs().config().write_rate);
      ci.cpu_load = rec->cpu_load;
      ci.battery = rec->battery;
      ci.battery_powered = rec->battery_powered;
      cands.push_back(ci);
    }
    if (cands.empty()) co_return std::nullopt;
    co_return cands[choose_candidate(opts.decision, cands)].site.node;
  };

  Key chosen_home{};
  if (target == StoreTarget::home_any) {
    const auto c = co_await pick_home(sp.ctx());
    if (c.has_value()) {
      chosen_home = *c;
    } else {
      target = StoreTarget::remote_cloud;
    }
  }
  out.decision = sim.now() - d0;

  const TimePoint p0 = sim.now();
  ObjectLocation loc;

  if (target == StoreTarget::local) {
    auto w = co_await fs_.write(meta.name, meta.size, Bin::mandatory, sp.ctx());
    if (w.ok()) {
      sp.attr("target", "local");
      loc.kind = ObjectLocation::Kind::home_node;
      loc.node = chimera_.id();
      out.placement = sim.now() - p0;
      co_return loc;
    }
    // Local disk refused (full, or flaky media): re-route into the shared
    // pool instead of failing the store.
    ++stats_.store_reroutes;
    const auto c = co_await pick_home(sp.ctx());
    if (c.has_value()) {
      chosen_home = *c;
      target = StoreTarget::home_any;
    } else {
      target = StoreTarget::remote_cloud;
    }
  }

  if (target == StoreTarget::home_any) {
    VStoreNode* vn = cloud_.node_by_key(chosen_home);
    bool placed = false;
    if (vn != nullptr && vn->online()) {
      co_await net.transfer(chimera_.net_node(), vn->chimera().net_node(), meta.size,
                            cloud_.lan_profile(), sp.ctx());
      auto w = co_await vn->fs_.write(meta.name, meta.size, Bin::voluntary, sp.ctx());
      // A write that raced the target's crash may be torn; only a write that
      // completed on a live node counts.
      placed = w.ok() && vn->online();
    }
    if (placed) {
      sp.attr("target", "home");
      loc.kind = ObjectLocation::Kind::home_node;
      loc.node = chosen_home;
      out.placement = sim.now() - p0;
      co_return loc;
    }
    // Stale record (bin filled since the last monitor update), dead target,
    // or flaky disk: spill to the remote cloud rather than failing the store.
    ++stats_.store_reroutes;
  }

  const std::string url = cloud::S3Store::url_for("vstore", meta.name);
  const TimePoint u0 = sim.now();
  auto p = co_await cloud_.s3().put(chimera_.net_node(), url, meta.size, sp.ctx());
  if (!p.ok()) {
    sp.set_error(p.error().message);
    co_return p.error();
  }
  cloud_.wan_estimator().observe_upload(meta.size, sim.now() - u0);
  sp.attr("target", "cloud");
  loc.kind = ObjectLocation::Kind::remote_cloud;
  loc.url = url;
  out.placement = sim.now() - p0;
  co_return loc;
}

sim::Task<Result<StoreOutcome>> VStoreNode::store_object(const std::string& name,
                                                         StoreOptions opts, obs::Ctx parent) {
  auto& sim = cloud_.sim();
  const TimePoint t0 = sim.now();
  StoreOutcome out;
  obs::ScopedSpan sp(op_ctx(parent), "vstore.store");
  sp.attr("object", name);

  const auto it = created_.find(name);
  if (it == created_.end()) {
    sp.set_error("not created");
    co_return Error{Errc::not_found, "CreateObject was not called for " + name};
  }
  const ObjectMeta meta = it->second;
  sp.attr("bytes", static_cast<std::uint64_t>(meta.size));

  co_await command_round_trip(sp.ctx());

  // Move the object out of the guest VM into the control domain.
  const TimePoint x0 = sim.now();
  {
    obs::ScopedSpan xs(sp.ctx(), "vmm.xensocket");
    xs.attr("bytes", static_cast<std::uint64_t>(meta.size));
    co_await xensocket_.transfer(meta.size);
  }
  out.inter_domain = sim.now() - x0;

  auto finish = [](VStoreNode& self, ObjectMeta m, StoreOptions o, StoreOutcome partial,
                   TimePoint start, obs::Ctx ctx) -> sim::Task<Result<StoreOutcome>> {
    auto& s = self.cloud_.sim();
    const Key key = m.key();
    // Overwriting an existing owned object requires write rights.
    {
      auto existing = co_await self.cloud_.kv().get(self.chimera_, key, ctx);
      if (existing.ok()) {
        auto prev = ObjectRecord::deserialize(*existing);
        if (prev.ok()) {
          if (auto auth = self.authorize(*prev, Right::write); !auth.ok()) {
            co_return auth.error();
          }
        }
      }
    }
    auto loc = co_await self.place_object(m, o, partial, ctx);
    if (!loc.ok()) co_return loc.error();

    const TimePoint m0 = s.now();
    ObjectRecord rec{m, *loc};
    auto put = co_await self.cloud_.kv().put(self.chimera_, key, rec.serialize(),
                                             kv::OverwritePolicy::overwrite, ctx);
    if (!put.ok()) co_return put.error();
    partial.metadata = s.now() - m0;
    partial.location = *loc;
    partial.total = s.now() - start;
    self.created_.erase(m.name);
    co_return partial;
  };

  if (!opts.blocking) {
    // Non-blocking store: the guest resumes once the data has left its VM;
    // placement and metadata update continue asynchronously. The root span
    // ends at the guest's resume; the continuation's children still attach
    // under it (their own timestamps carry the late completion).
    sim.spawn([](VStoreNode& self, ObjectMeta m, StoreOptions o, StoreOutcome partial,
                 TimePoint start, decltype(finish) fin, obs::Ctx ctx) -> sim::Task<> {
      (void)co_await fin(self, std::move(m), std::move(o), partial, start, ctx);
    }(*this, meta, opts, out, t0, finish, sp.ctx()));
    out.total = sim.now() - t0;
    out.location.kind = ObjectLocation::Kind::home_node;
    out.location.node = chimera_.id();  // provisional
    co_return out;
  }

  auto done = co_await finish(*this, meta, opts, out, t0, sp.ctx());
  if (!done.ok()) {
    sp.set_error(done.error().message);
    co_return done.error();
  }
  StoreOutcome full = *done;
  co_await command_round_trip(sp.ctx());  // the blocking store's extra acknowledgement
  full.total = sim.now() - t0;
  co_return full;
}

Result<void> VStoreNode::authorize(const ObjectRecord& rec, Right r) const {
  const auto d = check_access(rec.meta.owner, rec.meta.acl, rec.meta.has_tag("private"),
                              principal_, r);
  if (d.allowed) return Result<void>{};
  return Error{Errc::permission_denied,
               "access denied for '" + principal_.user + "' on " + rec.meta.name + ": " +
                   d.reason};
}

sim::Task<Result<ObjectRecord>> VStoreNode::lookup_record(const std::string& name,
                                                          Duration& dht_cost, obs::Ctx ctx) {
  auto& sim = cloud_.sim();
  const TimePoint t0 = sim.now();
  auto raw = co_await cloud_.kv().get(chimera_, Key::from_name(name), ctx);
  dht_cost = sim.now() - t0;
  if (!raw.ok()) co_return raw.error();
  co_return ObjectRecord::deserialize(*raw);
}

sim::Task<Result<FetchOutcome>> VStoreNode::fetch_attempt(const std::string& name, obs::Ctx ctx) {
  auto& sim = cloud_.sim();
  auto& net = cloud_.network();
  FetchOutcome out;

  obs::ScopedSpan sp(ctx, "vstore.fetch.attempt");
  auto rec = co_await lookup_record(name, out.dht_lookup, sp.ctx());
  if (!rec.ok()) {
    sp.set_error(rec.error().message);
    co_return rec.error();
  }
  if (auto auth = authorize(*rec, Right::read); !auth.ok()) {
    sp.set_error("denied");
    co_return auth.error();
  }
  out.size = rec->meta.size;

  const TimePoint n0 = sim.now();
  if (rec->location.is_cloud()) {
    sp.attr("source", "cloud");
    auto got = co_await cloud_.s3().get(chimera_.net_node(), rec->location.url, sp.ctx());
    if (!got.ok()) {
      sp.set_error(got.error().message);
      co_return got.error();
    }
    cloud_.wan_estimator().observe_download(rec->meta.size, sim.now() - n0);
    out.from_cloud = true;
  } else if (rec->location.node == chimera_.id()) {
    sp.attr("source", "local");
    auto got = co_await fs_.read(name, sp.ctx());
    if (!got.ok()) {
      sp.set_error(got.error().message);
      co_return got.error();
    }
    out.local = true;
  } else {
    VStoreNode* ownr = cloud_.node_by_key(rec->location.node);
    if (ownr == nullptr || !ownr->online()) {
      // Owner down. A copy may survive in the remote cloud from an earlier
      // placement spill — the last-resort replica before reporting
      // unavailability (the retry loop handles the transient case).
      const std::string url = cloud::S3Store::url_for("vstore", name);
      if (cloud_.s3().exists(url)) {
        sp.attr("source", "cloud_fallback");
        auto got = co_await cloud_.s3().get(chimera_.net_node(), url, sp.ctx());
        if (!got.ok()) {
          sp.set_error(got.error().message);
          co_return got.error();
        }
        cloud_.wan_estimator().observe_download(rec->meta.size, sim.now() - n0);
        out.from_cloud = true;
        ++stats_.fetch_cloud_fallbacks;
        out.inter_node = sim.now() - n0;
        co_return out;
      }
      sp.set_error("owner offline");
      co_return Error{Errc::unavailable, "object owner offline: " + name};
    }
    // Request message, owner's disk read, then the zero-copy transfer back.
    sp.attr("source", "remote_node");
    co_await net.send_message(chimera_.net_node(), ownr->chimera().net_node(), 50, sp.ctx());
    auto got = co_await ownr->fs_.read(name, sp.ctx());
    if (!got.ok()) {
      sp.set_error(got.error().message);
      co_return got.error();
    }
    if (!ownr->online()) {
      sp.set_error("owner died mid-read");
      co_return Error{Errc::unavailable, "owner died mid-read: " + name};
    }
    co_await net.transfer(ownr->chimera().net_node(), chimera_.net_node(), rec->meta.size,
                          cloud_.lan_profile(), sp.ctx());
  }
  out.inter_node = sim.now() - n0;
  co_return out;
}

sim::Task<Result<FetchOutcome>> VStoreNode::fetch_object(const std::string& name,
                                                         obs::Ctx parent) {
  auto& sim = cloud_.sim();
  const TimePoint t0 = sim.now();
  obs::ScopedSpan sp(op_ctx(parent), "vstore.fetch");
  sp.attr("object", name);

  co_await command_round_trip(sp.ctx());

  // Locate-and-transfer with bounded retries: lost messages, owners that die
  // mid-fetch, and flaky disks all surface as transient errors here.
  Result<FetchOutcome> res = co_await sim::retry<Result<FetchOutcome>>(
      sim, rng_, [&] { return fetch_attempt(name, sp.ctx()); },
      [&] { ++stats_.fetch_retries; });
  if (!res.ok()) {
    if (sim::transient(res.code())) ++stats_.op_failures;
    sp.set_error(res.error().message);
    co_return res.error();
  }
  FetchOutcome out = *res;

  // Deliver into the guest VM.
  const TimePoint x0 = sim.now();
  {
    obs::ScopedSpan xs(sp.ctx(), "vmm.xensocket");
    xs.attr("bytes", static_cast<std::uint64_t>(out.size));
    co_await xensocket_.transfer(out.size);
  }
  out.inter_domain = sim.now() - x0;

  co_await command_round_trip(sp.ctx());
  out.total = sim.now() - t0;
  co_return out;
}

namespace {

/// The execution site's domain.
vmm::Domain& site_domain(HomeCloud& hc, const ExecSite& site) {
  if (site.kind == ExecSite::Kind::ec2) return hc.ec2().domain();
  return hc.node_by_key(site.node)->app_domain();
}

}  // namespace

sim::Task<Result<ProcessOutcome>> VStoreNode::process(const std::string& name,
                                                      const services::ServiceProfile& service,
                                                      DecisionPolicy policy,
                                                      std::optional<ExecSite> force,
                                                      obs::Ctx parent) {
  // (explicit vector: GCC 12 miscompiles brace-init arguments in
  // co_return co_await expressions)
  std::vector<services::ServiceProfile> stages;
  stages.push_back(service);
  co_return co_await process_pipeline(name, stages, policy, force, parent);
}

sim::Task<Result<ProcessOutcome>> VStoreNode::process_pipeline(
    const std::string& name, const std::vector<services::ServiceProfile>& stages,
    DecisionPolicy policy, std::optional<ExecSite> force, obs::Ctx parent) {
  auto& sim = cloud_.sim();
  const TimePoint t0 = sim.now();
  ProcessOutcome out;
  if (stages.empty()) co_return Error{Errc::invalid_argument, "empty pipeline"};
  obs::ScopedSpan sp(op_ctx(parent), "vstore.process");
  sp.attr("object", name);
  sp.attr("stages", static_cast<std::uint64_t>(stages.size()));

  co_await command_round_trip(sp.ctx());

  auto rec = co_await lookup_record(name, out.dht_lookup, sp.ctx());
  if (!rec.ok()) {
    sp.set_error(rec.error().message);
    co_return rec.error();
  }
  if (auto auth = authorize(*rec, Right::read); !auth.ok()) {
    sp.set_error("denied");
    co_return auth.error();
  }
  if (auto auth = authorize(*rec, Right::execute); !auth.ok()) {
    sp.set_error("denied");
    co_return auth.error();
  }
  const Bytes size = rec->meta.size;

  const ExecSite owner_site =
      rec->location.is_cloud() ? ExecSite{ExecSite::Kind::ec2, {}}
                               : ExecSite{ExecSite::Kind::home_node, rec->location.node};

  // --- chimeraGetDecision: collect candidates and their resource state ---
  const TimePoint d0 = sim.now();
  if (force.has_value()) {
    out.site = *force;
    auto ran = co_await run_at_site(*force, owner_site, name, stages, *rec, out, t0, sp.ctx());
    if (!ran.ok()) {
      sp.set_error(ran.error().message);
      co_return ran.error();
    }
    co_return out;
  }
  obs::ScopedSpan dsp(sp.ctx(), "vstore.decision");
  std::vector<CandidateInfo> cands;
  std::set<std::uint64_t> seen;  // home-node keys already considered

  auto add_home_candidate = [&](Key node_key) -> sim::Task<> {
    if (seen.contains(node_key.raw())) co_return;
    seen.insert(node_key.raw());
    VStoreNode* vn = cloud_.node_by_key(node_key);
    if (vn == nullptr || !vn->online()) co_return;
    for (const auto& stage : stages) {
      if (!vn->has_service(stage) || !stage.admissible(vn->app_domain())) co_return;
    }
    auto rrec = co_await mon::fetch_record(cloud_.kv(), chimera_, node_key, dsp.ctx());
    CandidateInfo ci;
    ci.site = ExecSite{ExecSite::Kind::home_node, node_key};
    ci.move_in = cloud_.estimate_move(owner_site, ci.site, size);
    if (node_key != chimera_.id()) ci.move_in += cloud_.config().remote_dispatch;
    // WAN decomposition for the learned engine: a home site pulls the
    // argument down from S3 when the owner is the cloud.
    ci.move_bytes = ci.site == owner_site ? 0 : size;
    ci.move_over_wan = rec->location.is_cloud();
    ci.move_upload = false;
    if (node_key != chimera_.id()) ci.dispatch = cloud_.config().remote_dispatch;
    const double load = rrec.ok() ? rrec->cpu_load : 0.0;
    double est = 0;
    for (const auto& stage : stages) {
      est += to_seconds(stage.estimate(vn->app_domain(), size));
    }
    ci.exec_estimate = from_seconds(est / std::max(0.05, 1.0 - load));
    ci.cpu_load = load;
    ci.battery = rrec.ok() ? rrec->battery : 1.0;
    ci.battery_powered = rrec.ok() && rrec->battery_powered;
    cands.push_back(ci);
  };

  // Requester and owner are always considered first (§III-B's fast paths).
  co_await add_home_candidate(chimera_.id());
  if (!rec->location.is_cloud()) co_await add_home_candidate(rec->location.node);

  // Other deployments from the first stage's registry entry (a pipeline
  // runs where its stages are co-deployed).
  auto registered = co_await cloud_.registry().lookup(chimera_, stages.front());
  if (registered.ok()) {
    for (const Key k : *registered) co_await add_home_candidate(k);
  }

  // The remote cloud.
  bool cloud_has_all = true;
  for (const auto& stage : stages) cloud_has_all &= cloud_.cloud_has_service(stage);
  if (cloud_has_all) {
    CandidateInfo ci;
    ci.site = ExecSite{ExecSite::Kind::ec2, {}};
    ci.move_in = cloud_.estimate_move(owner_site, ci.site, size) +
                 cloud_.config().remote_dispatch;
    // WAN decomposition: a home-owned argument is uploaded over the WAN;
    // a cloud-owned one moves S3→EC2 intra-cloud.
    ci.move_bytes = rec->location.is_cloud() ? 0 : size;
    ci.move_over_wan = !rec->location.is_cloud();
    ci.move_upload = true;
    ci.dispatch = cloud_.config().remote_dispatch;
    double est = 0;
    for (const auto& stage : stages) {
      est += to_seconds(stage.estimate(cloud_.ec2().domain(), size));
    }
    ci.exec_estimate = from_seconds(est);
    ci.cpu_load = cloud_.ec2().host().cpu_utilization();
    cands.push_back(ci);
  }

  if (cands.empty()) {
    sp.set_error("no site");
    co_return Error{Errc::unavailable,
                    "pipeline deployed nowhere reachable: " + stages.front().name};
  }
  ExecSite site;
  std::string learn_ctx;
  if (policy == DecisionPolicy::learned) {
    // Candidate costs are requester-relative (the dispatch overhead lands on
    // every site but this node), so the requester is part of the context —
    // otherwise one context's incumbent pins a site that is remote for every
    // other requester of the same (service, size) pair.
    learn_ctx = PlacementEngine::context_of(stages.front(), size) + "@" + chimera_.id().to_string();
    site = cloud_.placement_engine().choose(learn_ctx, cands, sim.now());
  } else {
    site = cands[choose_candidate(policy, cands)].site;
  }
  out.decision = sim.now() - d0;
  out.site = site;
  dsp.attr("candidates", static_cast<std::uint64_t>(cands.size()));
  dsp.end();

  auto ran = co_await run_at_site(site, owner_site, name, stages, *rec, out, t0, sp.ctx());
  if (!ran.ok()) {
    sp.set_error(ran.error().message);
    co_return ran.error();
  }
  if (policy == DecisionPolicy::learned) {
    // Feedback: only the site-attributable phases (the per-phase span
    // breakdown minus lookup/decision overhead no site choice can change).
    cloud_.placement_engine().observe(learn_ctx, site,
                                      out.move + out.exec + out.result_return);
  }
  co_return out;
}

sim::Task<Result<void>> VStoreNode::run_at_site(const ExecSite& site, const ExecSite& owner_site,
                                                const std::string& name,
                                                const std::vector<services::ServiceProfile>& stages,
                                                const ObjectRecord& rec, ProcessOutcome& out,
                                                TimePoint t0, obs::Ctx ctx) {
  auto& sim = cloud_.sim();
  auto& net = cloud_.network();
  const Bytes size = rec.meta.size;

  // Remote dispatch: invoking the service anywhere but the requester pays a
  // fixed command/startup/queueing cost.
  const bool remote_site =
      !(site.kind == ExecSite::Kind::home_node && site.node == chimera_.id());
  if (remote_site) co_await sim.delay(cloud_.config().remote_dispatch);

  // --- Move the argument object to the site ------------------------------
  const TimePoint m0 = sim.now();
  {
    obs::ScopedSpan mv(ctx, "vstore.move");
    if (!(site == owner_site)) {
      if (rec.location.is_cloud()) {
        if (site.kind == ExecSite::Kind::ec2) {
          co_await sim.delay(cloud::intra_cloud_move(size));
        } else {
          auto got = co_await cloud_.s3().get(site_domain(cloud_, site).host().net_node(),
                                              rec.location.url, mv.ctx());
          if (!got.ok()) co_return got.error();
        }
      } else {
        // A crashed owner usually restarts within the fault plan's downtime;
        // wait with backoff before declaring the argument unavailable.
        VStoreNode* ownr = nullptr;
        const Result<void> online = co_await sim::retry<Result<void>>(
            sim, rng_,
            [&]() -> sim::Task<Result<void>> {
              ownr = cloud_.node_by_key(rec.location.node);
              if (ownr == nullptr || !ownr->online()) co_return Errc::unavailable;
              co_return Result<void>{};
            },
            [] {});
        if (!online.ok()) {
          mv.set_error("owner offline");
          co_return Error{Errc::unavailable, "object owner offline: " + name};
        }
        auto read = co_await ownr->fs_.read(name, mv.ctx());
        if (!read.ok()) co_return read.error();
        if (site.kind == ExecSite::Kind::ec2) {
          co_await net.transfer(ownr->chimera().net_node(), cloud_.cloud_endpoint(), size,
                                cloud_.config().transport, mv.ctx());
        } else {
          co_await net.transfer(ownr->chimera().net_node(),
                                site_domain(cloud_, site).host().net_node(), size,
                                cloud_.lan_profile(), mv.ctx());
        }
      }
    } else if (!rec.location.is_cloud()) {
      // Executing at the owner still reads the object off its disk.
      VStoreNode* ownr = cloud_.node_by_key(rec.location.node);
      auto read = co_await ownr->fs_.read(name, mv.ctx());
      if (!read.ok()) co_return read.error();
    }
  }
  out.move = sim.now() - m0;

  // --- Execute the stages back-to-back ------------------------------------
  const TimePoint e0 = sim.now();
  Bytes stage_input = size;
  for (const auto& stage : stages) {
    stage_input = co_await services::execute_service(stage, site_domain(cloud_, site),
                                                     stage_input, ctx);
  }
  out.output = stage_input;
  out.exec = sim.now() - e0;

  // --- Return the result to the requester ---------------------------------
  const TimePoint r0 = sim.now();
  {
    obs::ScopedSpan rt(ctx, "vstore.return");
    const bool site_is_me = site.kind == ExecSite::Kind::home_node && site.node == chimera_.id();
    if (!site_is_me) {
      if (site.kind == ExecSite::Kind::ec2) {
        if (out.output > 0) {
          co_await net.transfer(cloud_.cloud_endpoint(), chimera_.net_node(), out.output,
                                cloud_.config().transport, rt.ctx());
        } else {
          co_await net.send_message(cloud_.cloud_endpoint(), chimera_.net_node(), 50, rt.ctx());
        }
      } else {
        auto* vn = cloud_.node_by_key(site.node);
        if (out.output > 0) {
          co_await net.transfer(vn->chimera().net_node(), chimera_.net_node(), out.output,
                                cloud_.lan_profile(), rt.ctx());
        } else {
          co_await net.send_message(vn->chimera().net_node(), chimera_.net_node(), 50, rt.ctx());
        }
      }
    }
    if (out.output > 0) {
      obs::ScopedSpan xs(rt.ctx(), "vmm.xensocket");
      xs.attr("bytes", static_cast<std::uint64_t>(out.output));
      co_await xensocket_.transfer(out.output);
    }
  }
  out.result_return = sim.now() - r0;

  co_await command_round_trip(ctx);
  out.total = sim.now() - t0;
  co_return Result<void>{};
}

sim::Task<Result<ProcessOutcome>> VStoreNode::fetch_process(
    const std::string& name, const services::ServiceProfile& service, DecisionPolicy policy,
    obs::Ctx parent) {
  auto& sim = cloud_.sim();
  const TimePoint t0 = sim.now();
  obs::ScopedSpan sp(op_ctx(parent), "vstore.fetch_process");
  sp.attr("object", name);

  // "When the node storing the object receives the request, it uses the
  // service identifier to first determine if the requesting node is capable
  // of executing the service itself. In that case, the object is simply
  // returned as in the regular fetch operation, and the service processing
  // is performed at the requesting node's VStore++ guest domain."
  if (has_service(service) && service.admissible(app_domain_)) {
    auto fetched = co_await fetch_object(name, sp.ctx());
    if (!fetched.ok()) {
      sp.set_error(fetched.error().message);
      co_return fetched.error();
    }
    ProcessOutcome out;
    out.site = ExecSite{ExecSite::Kind::home_node, chimera_.id()};
    out.dht_lookup = fetched->dht_lookup;
    out.move = fetched->inter_node + fetched->inter_domain;
    const TimePoint e0 = sim.now();
    out.output = co_await services::execute_service(service, app_domain_, fetched->size, sp.ctx());
    out.exec = sim.now() - e0;
    out.total = sim.now() - t0;
    co_return out;
  }

  // Otherwise: owner-or-elsewhere, via the same decision machinery; the
  // requester is not a candidate (it cannot run the service).
  auto outcome = co_await process(name, service, policy, std::nullopt, sp.ctx());
  if (!outcome.ok()) {
    sp.set_error(outcome.error().message);
    co_return outcome.error();
  }
  ProcessOutcome out = *outcome;
  out.total = sim.now() - t0;
  co_return out;
}

}  // namespace c4h::vstore
