// Per-layer measurement: the step loops, layer counters read through public
// stats() accessors and registry counters, and span self-time attribution.
#include <algorithm>
#include <cmath>

#include "perfbench/perfbench.hpp"

namespace c4h::perfbench {

namespace {

/// Wraps a task so the step loop can tell it finished. The flag is shared
/// with the frame: if the queue drains first, the frame may outlive the loop.
sim::Task<> mark_done(sim::Task<> inner, std::shared_ptr<bool> done) {
  co_await inner;
  *done = true;
}

constexpr std::array<const char*, 5> kStepClasses = {"net_flow", "net_msg", "kv", "overlay",
                                                     "other"};

constexpr std::array<Errc, 9> kFailCodes = {
    Errc::not_found, Errc::already_exists,   Errc::no_capacity,
    Errc::no_route,  Errc::unavailable,      Errc::invalid_argument,
    Errc::timeout,   Errc::io_error,         Errc::permission_denied};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Span tree of one tracer: children in creation order (so by start time)
/// and each span's self time — its duration minus the union of its
/// children's intervals, clipped to its own.
struct SpanTree {
  const std::vector<obs::Span>* spans = nullptr;
  std::vector<std::size_t> first;  // CSR offsets into `kids` by parent id (0 = roots)
  std::vector<obs::SpanId> kids;
  std::vector<std::int64_t> self;

  explicit SpanTree(const obs::Tracer& t) : spans(&t.spans()) {
    const std::size_t n = spans->size();
    first.assign(n + 2, 0);
    for (const obs::Span& s : *spans) ++first[s.parent + 1];
    for (std::size_t i = 1; i < first.size(); ++i) first[i] += first[i - 1];
    kids.resize(n);
    std::vector<std::size_t> fill(first.begin(), first.end() - 1);
    for (const obs::Span& s : *spans) kids[fill[s.parent]++] = s.id;
    self.resize(n + 1, 0);
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const obs::Span& s : *spans) {
      iv.clear();
      for (std::size_t k = first[s.id]; k < first[s.id + 1]; ++k) {
        const obs::Span& c = at(kids[k]);
        iv.emplace_back(c.start.count(), c.end.count());
      }
      self[s.id] = self_of(s, iv);
    }
  }

  const obs::Span& at(obs::SpanId id) const { return (*spans)[id - 1]; }

  /// `s`'s duration minus the union of `iv` clipped to [start, end].
  static std::int64_t self_of(const obs::Span& s,
                              std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
    const std::int64_t lo = s.start.count();
    const std::int64_t hi = s.end.count();
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, cur);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cur = b;
      }
    }
    return (hi - lo) - covered;
  }
};

}  // namespace

bool drive(sim::Simulation& sim, sim::Task<> task) {
  auto done = std::make_shared<bool>(false);
  sim.spawn(mark_done(std::move(task), done));
  while (!*done && sim.step()) {}
  return *done;
}

StepProbe::Marks StepProbe::read(Deployment& d) {
  Marks m;
  for (const net::Network* n : d.networks()) {
    m.flows += n->stats().flows_started + n->stats().flows_completed;
    m.active += n->active_flows();
    m.msgs += n->stats().messages_sent;
  }
  for (vstore::HomeCloud* h : d.homes()) {
    const kv::KvStats& k = h->kv().stats();
    m.kv += k.puts + k.gets + k.erases + k.replication_msgs + k.redistribution_msgs +
            k.cache_updates;
    const overlay::OverlayStats& o = h->overlay().stats();
    m.overlay += o.routes + o.route_hops + o.join_messages + o.maintenance_messages;
  }
  return m;
}

bool StepProbe::drive(Deployment& d, sim::Task<> task) {
  auto done = std::make_shared<bool>(false);
  sim::Simulation& sim = d.sim();
  sim.spawn(mark_done(std::move(task), done));
  Marks before = read(d);
  const std::uint64_t events0 = sim.events_executed();
  while (!*done) {
    const HostClock clock;
    if (!sim.step()) break;
    const double dt = clock.elapsed_s();
    const Marks after = read(d);
    // Attributed to the first layer whose counters the step advanced.
    std::size_t cls = 4;
    if (after.flows != before.flows || after.active != before.active) {
      cls = 0;
    } else if (after.msgs != before.msgs) {
      cls = 1;
    } else if (after.kv != before.kv) {
      cls = 2;
    } else if (after.overlay != before.overlay) {
      cls = 3;
    }
    step_s_[cls] += dt;
    ++step_n_[cls];
    queue_peak_ = std::max(queue_peak_, sim.event_queue_size());
    active_peak_ = std::max(active_peak_, after.active);
    flow_steps_ += after.active;
    before = after;
  }
  events_ += sim.events_executed() - events0;
  return *done;
}

void StepProbe::report(LayerReport& out) const {
  out["sim.events"] = static_cast<double>(events_);
  out["sim.queue_peak"] = static_cast<double>(queue_peak_);
  out["net.active_flows_peak"] = static_cast<double>(active_peak_);
  out["net.flow_steps"] = static_cast<double>(flow_steps_);
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::string base = std::string("host.step.") + kStepClasses[c];
    out[base + ".ms"] = step_s_[c] * 1e3;
    out[base + ".count"] = static_cast<double>(step_n_[c]);
  }
}

LayerCounters read_counters(Deployment& d) {
  LayerCounters v;
  for (const net::Network* n : d.networks()) {
    v["net.flows"] += static_cast<double>(n->stats().flows_started);
    v["net.msgs"] += static_cast<double>(n->stats().messages_sent);
    v["net.bytes"] += n->stats().bytes_delivered;
  }
  for (vstore::HomeCloud* h : d.homes()) {
    const overlay::OverlayStats& o = h->overlay().stats();
    v["overlay.routes"] += static_cast<double>(o.routes);
    v["overlay.route_hops"] += static_cast<double>(o.route_hops);
    const kv::KvStats& k = h->kv().stats();
    v["kv.puts"] += static_cast<double>(k.puts);
    v["kv.gets"] += static_cast<double>(k.gets);
    v["kv.hits"] += static_cast<double>(k.local_hits + k.cache_hits);
    v["kv.replication_msgs"] += static_cast<double>(k.replication_msgs);
    v["kv.redistribution_msgs"] += static_cast<double>(k.redistribution_msgs);
    for (std::size_t i = 0; i < h->node_count(); ++i) {
      const vstore::VStoreNodeStats& s = h->node(i).stats();
      v["vstore.fetch_retries"] += static_cast<double>(s.fetch_retries);
      v["vstore.cloud_fallbacks"] += static_cast<double>(s.fetch_cloud_fallbacks);
      v["vstore.store_reroutes"] += static_cast<double>(s.store_reroutes);
      v["vstore.op_failures"] += static_cast<double>(s.op_failures);
    }
    const obs::Snapshot snap = h->metrics().snapshot();
    const auto counter = [&snap](const std::string& name) {
      const auto it = snap.counters.find(name);
      return it != snap.counters.end() ? static_cast<double>(it->second) : 0.0;
    };
    v["placement.decisions"] += counter("c4h.placement.decision.count");
    v["placement.switches"] += counter("c4h.placement.switch.count");
  }
  return v;
}

void add_delta(LayerCounters& acc, const LayerCounters& before, const LayerCounters& after) {
  for (const auto& [k, v] : after) {
    const auto b = before.find(k);
    acc[k] += v - (b != before.end() ? b->second : 0.0);
  }
}

void report_counters(const LayerCounters& delta, LayerReport& out) {
  const auto get = [&delta](const std::string& k) {
    const auto it = delta.find(k);
    return it != delta.end() ? it->second : 0.0;
  };
  for (const char* k : {"net.flows", "net.msgs", "overlay.routes", "kv.puts", "kv.gets",
                        "kv.replication_msgs", "kv.redistribution_msgs", "vstore.fetch_retries",
                        "vstore.cloud_fallbacks", "vstore.store_reroutes", "vstore.op_failures",
                        "placement.decisions", "placement.switches"}) {
    out[k] = get(k);
  }
  out["net.bytes_mb"] = get("net.bytes") / 1e6;
  out["overlay.hops_per_route"] = ratio(get("overlay.route_hops"), get("overlay.routes"));
  out["kv.hit_ratio"] = ratio(get("kv.hits"), get("kv.gets"));
}

const std::vector<std::string>& reported_spans() {
  static const std::vector<std::string> names = {
      "vstore.command", "vstore.create",  "vstore.place",         "vstore.decision",
      "vstore.store",   "vstore.fetch",   "vstore.fetch.attempt", "vstore.process",
      "vstore.move",    "vstore.return",  "vstore.fetch_process", "kv.put",
      "kv.get",         "overlay.route",  "net.transfer",         "net.transfer_striped",
      "net.msg",        "fs.read",        "fs.write",             "vmm.xensocket",
      "svc.exec",       "s3.get",         "s3.put",               "fed2.publish",
      "fed2.fetch"};
  return names;
}

std::optional<std::int64_t> exact_quantile(const std::vector<std::int64_t>& sorted_ok,
                                           std::size_t failed, double p) {
  const std::size_t n = sorted_ok.size() + failed;
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it. Failed ops occupy the ranks above every success.
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (rank > sorted_ok.size()) return std::nullopt;
  return sorted_ok[rank - 1];
}

void attribute_spans(Deployment& d, Samples& samples, SpanTotals& totals) {
  const std::vector<std::string>& names = reported_spans();
  std::map<std::string, std::uint16_t> index;
  for (std::size_t k = 0; k < names.size(); ++k) index[names[k]] = static_cast<std::uint16_t>(k);

  std::vector<SpanTree> trees;
  for (vstore::HomeCloud* h : d.homes()) trees.emplace_back(h->tracer());
  for (const SpanTree& t : trees) {
    for (const obs::Span& s : *t.spans) {
      if (!index.contains(s.name)) continue;
      auto& [count, self] = totals[s.name];
      count += 1;
      self += t.self[s.id];
    }
  }

  // Each op's spans: its own root's subtree plus the linked roots' subtrees.
  std::vector<obs::SpanId> stack;
  std::vector<std::int64_t> self(names.size());
  for (OpSample& s : samples) {
    if (s.span == 0) continue;
    const SpanTree& t = trees[s.home];
    std::fill(self.begin(), self.end(), 0);
    stack.assign(1, s.span);
    for (const obs::SpanId id : s.linked) {
      // The replayer predicted the id a federation call's root span would
      // get; skip it if the call opened no fed2.* span there.
      if (id < t.first.size() - 1 && t.at(id).name.starts_with("fed2.")) stack.push_back(id);
    }
    while (!stack.empty()) {
      const obs::SpanId id = stack.back();
      stack.pop_back();
      if (const auto it = index.find(t.at(id).name); it != index.end()) {
        self[it->second] += t.self[id];
      }
      for (std::size_t k = t.first[id]; k < t.first[id + 1]; ++k) stack.push_back(t.kids[k]);
    }
    s.self_by_span.clear();
    for (std::size_t k = 0; k < self.size(); ++k) {
      if (self[k] != 0) s.self_by_span.emplace_back(static_cast<std::uint16_t>(k), self[k]);
    }
    s.span = 0;
    s.linked.clear();
  }
}

void report_samples(const Samples& samples, const SpanTotals& totals,
                    LayerReport& out) {
  std::array<std::vector<std::int64_t>, federation::kFetchPaths> tier_ns;
  std::vector<std::int64_t> dir_ns;
  std::map<Errc, std::uint64_t> fails;
  std::array<std::vector<std::int64_t>, kOpClasses> ok_ns;
  std::array<std::size_t, kOpClasses> failed{};
  for (const OpSample& s : samples) {
    const auto c = static_cast<std::size_t>(s.cls);
    if (s.err != Errc::ok) {
      ++fails[s.err];
      ++failed[c];
      continue;
    }
    ok_ns[c].push_back(s.latency_ns);
    if (s.tier >= 0) {
      tier_ns[static_cast<std::size_t>(s.tier)].push_back(s.latency_ns);
      dir_ns.push_back(s.dir_lookup_ns);
    }
  }
  for (std::size_t p = 0; p < federation::kFetchPaths; ++p) {
    const std::string base =
        std::string("fed.fetch.") + federation::to_string(static_cast<federation::FetchPath>(p));
    std::sort(tier_ns[p].begin(), tier_ns[p].end());
    out[base + ".count"] = static_cast<double>(tier_ns[p].size());
    out[base + ".p50_ms"] = ms(exact_quantile(tier_ns[p], 0, 50.0).value_or(0));
  }
  std::sort(dir_ns.begin(), dir_ns.end());
  out["fed.dir_lookup_ms"] = ms(exact_quantile(dir_ns, 0, 50.0).value_or(0));
  for (const Errc e : kFailCodes) {
    out[std::string("fail.") + to_string(e)] = static_cast<double>(fails[e]);
  }

  std::array<std::optional<std::int64_t>, kOpClasses> p99{};
  for (std::size_t c = 0; c < kOpClasses; ++c) {
    std::sort(ok_ns[c].begin(), ok_ns[c].end());
    p99[c] = exact_quantile(ok_ns[c], failed[c], 99.0);
  }
  const std::vector<std::string>& names = reported_spans();
  std::vector<std::int64_t> tail(names.size(), 0);
  std::int64_t tail_total = 0;
  for (const OpSample& s : samples) {
    const auto c = static_cast<std::size_t>(s.cls);
    if (s.err == Errc::ok && !(p99[c].has_value() && s.latency_ns >= *p99[c])) continue;
    tail_total += s.latency_ns;
    for (const auto& [k, self] : s.self_by_span) tail[k] += self;
  }
  for (std::size_t k = 0; k < names.size(); ++k) {
    const auto it = totals.find(names[k]);
    const std::string base = "span." + names[k];
    out[base + ".count"] = it != totals.end() ? it->second.first : 0.0;
    out[base + ".self_ms"] = it != totals.end() ? ms(it->second.second) : 0.0;
    out[base + ".tail_share"] =
        ratio(static_cast<double>(tail[k]), static_cast<double>(tail_total));
  }
}

}  // namespace c4h::perfbench
