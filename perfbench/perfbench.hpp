// The repository benchmark: three named workloads replayed open-loop against
// a Cloud4Home deployment through the public VStore++ / GeoFederation API.
//
//  * workloads.cpp — what each workload is (tenants, rates, deployment) and
//    the deployment it runs on;
//  * replay.cpp    — the open-loop schedule replayer and closed-loop clients,
//    recording one OpSample per issued operation;
//  * layers.cpp    — the traced run's per-layer probes: host time per event
//    step by layer, layer counters, and span self-time attribution;
//  * main.cpp      — runs one workload, checks its outputs and prints one
//    JSON object (perfbench/run.py turns it into the benchmark's metrics).
//
// Simulated numbers are exact functions of the seed. Host numbers come from
// the two sanctioned host clocks here, HostClock and CpuClock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/federation/geo_federation.hpp"
#include "src/vstore/home_cloud.hpp"
#include "src/workload/workload.hpp"

namespace c4h::perfbench {

/// Host-cost wall clock for the traced run's per-step timings only. Never feeds
/// simulated state: every simulated number comes from Simulation::now().
class HostClock {
 public:
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  // c4h-lint: allow(R2) — host-cost measurement only; never feeds simulated
  // state, and every host number the benchmark prints is labelled as such.
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

/// CPU seconds this (single-threaded) process has run since construction.
/// Unlike HostClock it leaves out the time the process waited for a core,
/// so other load on a shared host moves it far less. Host cost only, like
/// HostClock.
class CpuClock {
 public:
  double elapsed_s() const { return now_s() - start_; }

 private:
  static double now_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_ = now_s();
};

/// The three op classes the end-to-end metrics report. A store is create +
/// store (+ publish on the federation); process covers process and
/// fetch_process.
enum class OpClass : std::uint8_t { store = 0, fetch = 1, process = 2 };
inline constexpr std::size_t kOpClasses = 3;

constexpr const char* to_string(OpClass c) {
  switch (c) {
    case OpClass::store: return "store";
    case OpClass::fetch: return "fetch";
    case OpClass::process: return "process";
  }
  return "?";
}

struct WorkloadDef {
  workload::WorkloadSpec spec;

  // Deployment shape. `hoods == 0` is one standalone home; otherwise a City
  // of `hoods` neighborhoods × `homes_per_hood` homes, driven through a
  // GeoFederation.
  int nodes_per_home = 6;
  int hoods = 0;
  int homes_per_hood = 0;

  /// When set, a scheduled store writes a fresh object (catalog name plus a
  /// version suffix, catalog size) instead of overwriting the catalog entry.
  bool stores_add_new = false;

  /// Services registered in every home and deployed on every node.
  std::vector<services::ServiceProfile> services;

  /// Independent repetitions in one run, each on a fresh deployment with its
  /// own schedule (seed round_seed(seed, r)); quantiles pool every round.
  int rounds = 1;

  int home_count() const { return hoods == 0 ? 1 : hoods * homes_per_hood; }
};

/// Builds a named workload for `seed`; `small` is the reduced size the seed
/// test runs. Returns nullopt for an unknown name.
std::optional<WorkloadDef> make_workload(const std::string& name, std::uint64_t seed, bool small);

/// Schedule seed of round `r` of a run with seed `seed`.
constexpr std::uint64_t round_seed(std::uint64_t seed, int r) {
  return seed + static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ull;
}

/// The deployment a workload runs on: one standalone HomeCloud, or a City of
/// neighborhoods with a GeoFederation. Built and bootstrapped on
/// construction; services are published by the replayer's preload.
class Deployment {
 public:
  explicit Deployment(const WorkloadDef& w);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  sim::Simulation& sim() { return *sim_; }
  /// Homes in tenant order (City::all_homes order when federated).
  const std::vector<vstore::HomeCloud*>& homes() const { return homes_; }
  /// Distinct networks (one per home, or the City's shared one).
  const std::vector<net::Network*>& networks() const { return networks_; }
  /// The federation, or nullptr for a single home.
  federation::GeoFederation* fed() { return fed_.get(); }

 private:
  // Declaration order is teardown order reversed: the federation and the
  // homes go before the neighborhoods and the City they borrow from.
  std::unique_ptr<vstore::City> city_;
  std::vector<std::unique_ptr<vstore::Neighborhood>> hoods_;
  std::vector<std::unique_ptr<vstore::HomeCloud>> owned_homes_;
  std::unique_ptr<federation::GeoFederation> fed_;
  sim::Simulation* sim_ = nullptr;
  std::vector<vstore::HomeCloud*> homes_;
  std::vector<net::Network*> networks_;
};

/// One issued operation. Latency runs from its scheduled time to its
/// completion (failed ops included, with their error).
struct OpSample {
  OpClass cls = OpClass::fetch;
  Errc err = Errc::ok;
  std::int64_t latency_ns = 0;
  int tier = -1;                  // federation::FetchPath of a federated fetch
  std::int64_t dir_lookup_ns = 0;  // GeoFetch::directory_lookup
  // Traced run only: the home whose tracer holds the op's spans, the op's
  // own root span, root spans the op caused there (fed2.*), and after
  // attribute_spans() the op's self time per reported span (index into
  // reported_spans()).
  std::size_t home = 0;
  obs::SpanId span = 0;
  std::vector<obs::SpanId> linked;
  std::vector<std::pair<std::uint16_t, std::int64_t>> self_by_span;
};

/// Per-op samples. A deque grows in fixed chunks, so the harness's own
/// memory never spikes on a reallocation and peak RSS tracks the system.
using Samples = std::deque<OpSample>;

/// Replays a schedule against a deployment: preloads the catalog, then
/// issues every scheduled op at its time (open loop) and runs the
/// closed-loop clients, through the public VStore++ / GeoFederation API.
/// Tenant t lives in home (t mod homes); with k tenants per home, node i of
/// a home serves the home's tenant (i mod k) and acts as its principal.
class Replayer {
 public:
  Replayer(Deployment& d, const WorkloadDef& w, const workload::Schedule& s);

  /// Publishes services, then stores (and publishes) every catalog object
  /// from its owner's nodes.
  sim::Task<> preload();

  /// The measured phase; completes when every issued op has completed.
  sim::Task<> run();

  const Samples& samples() const { return samples_; }
  Samples& samples() { return samples_; }
  std::size_t pending() const { return pending_; }
  std::uint64_t wrong_sizes() const { return wrong_; }
  std::uint64_t preload_failures() const { return preload_failures_; }

 private:
  sim::Task<> replay();
  sim::Task<> tracked(workload::ScheduledOp op);
  sim::Task<> closed_client(std::uint32_t tenant, std::uint64_t seed);
  sim::Task<> execute(workload::OpKind kind, std::uint32_t tenant, std::uint32_t object,
                      TimePoint due);
  sim::Task<Errc> store(vstore::HomeCloud& home, vstore::VStoreNode& node,
                        const workload::ObjectSpec& obj, const std::string& name,
                        const workload::TenantSpec& issuer, obs::Ctx ctx, OpSample& s);
  std::size_t home_index(std::uint32_t tenant) const;
  vstore::VStoreNode& pick_node(std::uint32_t tenant);
  /// Next span id `home`'s tracer will hand out (0 while tracing is off).
  obs::SpanId next_span(vstore::HomeCloud& home) const;

  Deployment& d_;
  const WorkloadDef& w_;
  const workload::Schedule& s_;
  std::vector<std::vector<std::size_t>> tenant_nodes_;
  std::vector<std::size_t> rr_;
  std::vector<std::vector<std::uint32_t>> fetchable_;
  std::vector<std::vector<std::uint32_t>> own_;
  Samples samples_;
  TimePoint start_{};
  std::size_t pending_ = 0;
  bool draining_ = false;
  std::uint64_t wrong_ = 0;
  std::uint64_t preload_failures_ = 0;
  std::uint64_t added_ = 0;  // objects added so far (stores_add_new)
  sim::Event done_;
};

/// Runs `task` to completion on `sim`, one Simulation::step() at a time.
/// Returns false when the event queue drained before the task finished.
bool drive(sim::Simulation& sim, sim::Task<> task);

/// Per-layer numbers of one traced run by metric name, summed over its rounds.
using LayerReport = std::map<std::string, double>;

/// The traced run's step loop: drives a task like drive(), timing each step
/// on the host clock and attributing it to the first layer whose public
/// counters it advanced. Also samples queue and flow peaks. Accumulates
/// over every round it drives.
class StepProbe {
 public:
  bool drive(Deployment& d, sim::Task<> task);

  /// Adds the sim/net/host-step rows to `out`.
  void report(LayerReport& out) const;

 private:
  struct Marks {
    std::uint64_t flows = 0;  // flows started + completed
    std::size_t active = 0;   // in-flight flows
    std::uint64_t msgs = 0;
    std::uint64_t kv = 0;
    std::uint64_t overlay = 0;
  };
  static Marks read(Deployment& d);

  static constexpr std::size_t kClasses = 5;  // net_flow, net_msg, kv, overlay, other
  std::array<double, kClasses> step_s_{};
  std::array<std::uint64_t, kClasses> step_n_{};
  std::size_t queue_peak_ = 0;
  std::size_t active_peak_ = 0;
  std::uint64_t flow_steps_ = 0;
  std::uint64_t events_ = 0;
};

/// Every layer's public counters by name; read_counters() snapshots them,
/// and the traced run accumulates measured-phase deltas with add_delta().
using LayerCounters = std::map<std::string, double>;
LayerCounters read_counters(Deployment& d);
void add_delta(LayerCounters& acc, const LayerCounters& before, const LayerCounters& after);

/// Adds the counter-derived rows (net, overlay, kv, vstore, placement) for
/// the accumulated deltas to `out`.
void report_counters(const LayerCounters& delta, LayerReport& out);

/// Span totals of a traced run: per reported name, span count and self
/// time over every tracer of every round.
using SpanTotals = std::map<std::string, std::pair<double, std::int64_t>>;

/// After a traced round: adds every span of the deployment's tracers to
/// `totals`, and stores in each sample the self time of each span name
/// within that op's spans (OpSample::self_by_span).
void attribute_spans(Deployment& d, Samples& samples, SpanTotals& totals);

/// Adds the federation, failure-cause and span rows to `out`; a span's
/// tail share is its self time within the ops at or above their class's
/// p99, over those ops' total latency.
void report_samples(const Samples& samples, const SpanTotals& totals,
                    LayerReport& out);

/// Every span name the benchmark reports (`span.<name>.*`).
const std::vector<std::string>& reported_spans();

/// Exact nearest-rank quantile over the sorted latencies of one class's
/// successful ops plus `failed` failed ones, which rank above every success.
/// nullopt when there are no samples or the rank lands on a failed op.
std::optional<std::int64_t> exact_quantile(const std::vector<std::int64_t>& sorted_ok,
                                           std::size_t failed, double p);

}  // namespace c4h::perfbench
