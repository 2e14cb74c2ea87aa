// Ablation: learned vs static placement (DESIGN.md §15).
//
// Replays the DESIGN.md §11 scenario matrix — IoT fan-in, flash crowd, mixed
// tenants — plus an uplink-flap scenario, once per decision policy
// (performance / balanced / battery / learned), every run under background
// contention on the desktop. Static policies trust the monitored records
// published at bootstrap (stale: the contention starts afterwards); the
// learned PlacementEngine starts from the same cost model but corrects it
// online from observed per-phase times, and its WAN-aware store veto keeps
// uploads home while the uplink is degraded.
//
// The artifact (c4h-bench-v1) carries, per (scenario, policy) cell, the
// merged workload latency tails (p50/p99/p999) and ok/failed counts; for
// the learned runs it adds the engine's decision/switch/explore/veto
// counters, the cumulative regret, and a fixed-length regret time series.
// Headline acceptance (pinned by tests/test_scenario_golden.cpp): learned
// is within 5% of the best static policy's p99 on every steady scenario and
// strictly better than every static policy on the uplink-flap scenario.
#include <functional>
#include <string>
#include <vector>

#include "bench/scenario_util.hpp"

namespace c4h {
namespace {

using sim::Task;
using vstore::DecisionPolicy;

const char* policy_name(DecisionPolicy p) {
  switch (p) {
    case DecisionPolicy::performance: return "performance";
    case DecisionPolicy::balanced_utilization: return "balanced";
    case DecisionPolicy::battery_aware: return "battery";
    case DecisionPolicy::learned: return "learned";
  }
  return "?";
}

services::ServiceProfile aggregate_profile() {
  services::ServiceProfile p;
  p.name = "aggregate";
  p.id = 21;
  p.fixed_gigacycles = 0.02;
  p.gigacycles_per_mib = 0.5;
  p.output_ratio = 0.05;
  p.working_set_base = 8_MB;
  return p;
}

services::ServiceProfile detect_profile() {
  services::ServiceProfile p;
  p.name = "detect";
  p.id = 22;
  p.fixed_gigacycles = 0.05;
  p.gigacycles_per_mib = 1.2;
  p.output_ratio = 0.01;
  p.working_set_base = 24_MB;
  return p;
}

Duration scenario_duration(const bench::BenchArgs& args) {
  return args.quick ? seconds(24) : seconds(72);
}

// --- The scenario matrix (compressed DESIGN.md §11 shapes) -------------------

workload::WorkloadSpec iot_fanin_spec(const bench::BenchArgs& args) {
  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = scenario_duration(args);
  spec.diurnal.enabled = true;
  spec.diurnal.period = seconds(30);
  spec.diurnal.amplitude = 0.6;

  workload::TenantSpec sensors;
  sensors.name = "sensors";
  sensors.principal = {"sensors", vstore::TrustLevel::trusted};
  sensors.acl.allow("dashboard", {vstore::Right::read, vstore::Right::execute});
  sensors.object_type = "json";
  sensors.mix = {1.0, 0.0, 0.0, 0.0};
  sensors.object_count = args.quick ? 32 : 120;
  sensors.size = {4_KB, 64_KB};
  sensors.zipf_s = 0.6;
  sensors.arrival.rate_per_sec = args.quick ? 8.0 : 20.0;
  spec.tenants.push_back(sensors);

  workload::TenantSpec dashboard;
  dashboard.name = "dashboard";
  dashboard.principal = {"dashboard", vstore::TrustLevel::trusted};
  dashboard.mix = {0.0, 0.6, 0.3, 0.1};
  dashboard.object_count = 4;
  dashboard.size = {16_KB, 64_KB};
  dashboard.fetch_from = {"sensors"};
  dashboard.service = aggregate_profile();
  dashboard.closed.clients = 2;
  dashboard.closed.mean_think = milliseconds(400);
  spec.tenants.push_back(dashboard);
  return spec;
}

workload::WorkloadSpec flash_crowd_spec(const bench::BenchArgs& args) {
  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = scenario_duration(args);
  workload::FlashCrowdSpec f;
  f.start = TimePoint{spec.duration * 2 / 5};
  f.duration = spec.duration / 5;
  f.multiplier = 6.0;
  spec.flash_crowds.push_back(f);

  workload::TenantSpec publisher;
  publisher.name = "publisher";
  publisher.principal = {"publisher", vstore::TrustLevel::trusted};
  publisher.acl.allow("crowd", {vstore::Right::read, vstore::Right::execute});
  publisher.mix = {1.0, 0.0, 0.0, 0.0};
  publisher.object_count = args.quick ? 16 : 48;
  publisher.size = {1_MB, 4_MB};
  publisher.arrival.rate_per_sec = 1.0;
  spec.tenants.push_back(publisher);

  workload::TenantSpec crowd;
  crowd.name = "crowd";
  crowd.principal = {"crowd", vstore::TrustLevel::trusted};
  crowd.mix = {0.0, 0.9, 0.1, 0.0};
  crowd.object_count = 4;
  crowd.size = {64_KB, 256_KB};
  crowd.fetch_from = {"publisher"};
  crowd.zipf_s = 1.1;
  crowd.service = aggregate_profile();
  crowd.arrival.rate_per_sec = args.quick ? 5.0 : 12.0;
  spec.tenants.push_back(crowd);
  return spec;
}

workload::WorkloadSpec mixed_tenants_spec(const bench::BenchArgs& args) {
  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = scenario_duration(args);
  spec.diurnal.enabled = true;
  spec.diurnal.period = seconds(40);
  spec.diurnal.amplitude = 0.4;

  workload::TenantSpec media;
  media.name = "media";
  media.principal = {"media", vstore::TrustLevel::trusted};
  media.object_type = "mp3";
  media.private_objects = true;
  media.store_policy = vstore::StoragePolicy::privacy();
  media.mix = {0.3, 0.7, 0.0, 0.0};
  media.object_count = args.quick ? 16 : 64;
  media.size = {2_MB, 8_MB};
  media.arrival.rate_per_sec = args.quick ? 3.0 : 6.0;
  spec.tenants.push_back(media);

  workload::TenantSpec surveillance;
  surveillance.name = "surveillance";
  surveillance.principal = {"surveillance", vstore::TrustLevel::trusted};
  surveillance.mix = {0.5, 0.0, 0.5, 0.0};
  surveillance.object_count = args.quick ? 16 : 48;
  surveillance.size = {256_KB, 1_MB};
  surveillance.service = detect_profile();
  surveillance.arrival.rate_per_sec = args.quick ? 2.5 : 5.0;
  spec.tenants.push_back(surveillance);

  workload::TenantSpec iot;
  iot.name = "iot";
  iot.principal = {"iot", vstore::TrustLevel::trusted};
  iot.object_type = "json";
  iot.mix = {0.9, 0.1, 0.0, 0.0};
  iot.object_count = args.quick ? 32 : 120;
  iot.size = {4_KB, 32_KB};
  iot.zipf_s = 0.6;
  iot.arrival.rate_per_sec = args.quick ? 8.0 : 20.0;
  spec.tenants.push_back(iot);
  return spec;
}

// Cloud-leaning uploads under a flapping uplink: the shape that separates
// learned (store-veto reacts to the observed rate) from every static policy
// (keeps paying the degraded WAN).
//
// The run is deliberately long relative to one flap: the learned policy pays
// the degraded uplink only until the WAN estimate collapses below the veto
// threshold (a handful of stores during the first flap), while the static
// policies pay it on every one of the ~29 cycles. With ~900 stores, that
// one-time learning cost sits below the p99 rank and the tail separation is
// structural, not a bucket accident.
constexpr Duration kFlapRunDuration = seconds(900);
constexpr Duration kFlapWarmup = seconds(20);
constexpr Duration kFlapDown = seconds(6);
constexpr Duration kFlapUp = seconds(24);
constexpr int kFlapCycles = 29;

workload::WorkloadSpec uplink_flap_spec(const bench::BenchArgs& args) {
  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = kFlapRunDuration;

  workload::TenantSpec uploader;
  uploader.name = "uploader";
  uploader.principal = {"uploader", vstore::TrustLevel::trusted};
  uploader.mix = {1.0, 0.0, 0.0, 0.0};
  uploader.object_count = args.quick ? 40 : 120;
  uploader.size = {512_KB, 1_MB};
  // Cloud-leaning static intent: everything reasonable ships to S3.
  vstore::StoragePolicy to_cloud;
  vstore::StoreRule ship;
  ship.max_size = 64_MB;
  ship.target = vstore::StoreTarget::remote_cloud;
  to_cloud.rules = {ship};
  to_cloud.fallback = vstore::StoreTarget::local;
  uploader.store_policy = to_cloud;
  uploader.arrival.rate_per_sec = 1.0;
  spec.tenants.push_back(uploader);
  return spec;
}

struct ScenarioDef {
  const char* name;
  bool flaps;
  std::function<workload::WorkloadSpec(const bench::BenchArgs&)> make;
};

const std::vector<ScenarioDef>& scenario_matrix() {
  static const std::vector<ScenarioDef> m = {
      {"iot_fanin", false, iot_fanin_spec},
      {"flash_crowd", false, flash_crowd_spec},
      {"mixed_tenants", false, mixed_tenants_spec},
      {"uplink_flap", true, uplink_flap_spec},
  };
  return m;
}

// --- One (scenario, policy) cell --------------------------------------------

struct CellResult {
  obs::LogHistogram latency;  // every tenant × op, merged (ns)
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t switches = 0;
  std::uint64_t explorations = 0;
  std::uint64_t store_vetoes = 0;
  double regret_s = 0.0;
  std::vector<double> regret_series_s;  // sampled every 2s of the run window
};

// Degrade/restore cycles on the WAN link; identical for every policy so the
// comparison is apples-to-apples.
Task<> flap_uplink(vstore::HomeCloud& h) {
  co_await h.sim().delay(kFlapWarmup);
  for (int i = 0; i < kFlapCycles; ++i) {
    h.set_wan_rates(mib_per_sec(0.05), mib_per_sec(0.10));
    co_await h.sim().delay(kFlapDown);
    h.set_wan_rates(h.config().wan_up, h.config().wan_down);
    co_await h.sim().delay(kFlapUp);
  }
}

CellResult run_cell(const ScenarioDef& scn, DecisionPolicy policy, const bench::BenchArgs& args) {
  workload::WorkloadSpec spec = scn.make(args);
  for (auto& t : spec.tenants) t.decision = policy;

  vstore::HomeCloudConfig cfg = bench::scenario_config(args);
  // A tight upload budget makes the store veto sensitive to uplink
  // degradation at the sub-4MB object sizes the matrix uses.
  cfg.placement.upload_budget = seconds(2);
  // Prior-guided cold start: the blended WAN-repriced prior already ranks
  // cold arms, so skipping the forced warm-up keeps exploration below the
  // p99 rank at quick-mode op counts.
  cfg.placement.min_pulls_per_arm = 0;
  cfg.placement.epsilon = 0.02;
  vstore::HomeCloud hc{cfg};
  hc.bootstrap();
  for (const auto& t : spec.tenants) {
    if (t.service.has_value()) hc.registry().add_profile(*t.service);
  }

  CellResult cell;
  constexpr int kRegretSamples = 12;  // fixed-length series, any run duration
  workload::Driver driver{hc, spec};
  hc.run([](vstore::HomeCloud& h, workload::Driver& d, const workload::WorkloadSpec& sp,
            const ScenarioDef& s, DecisionPolicy pol, CellResult& out,
            int wanted) -> Task<> {
    // Services live on the odd nodes, so the decision layer always has a
    // real site choice to make.
    for (const auto& t : sp.tenants) {
      if (!t.service.has_value()) continue;
      for (std::size_t i = 1; i < h.node_count(); i += 2) {
        h.node(i).deploy_service(*t.service);
      }
    }
    for (std::size_t i = 1; i < h.node_count(); i += 2) {
      (void)co_await h.node(i).publish_services();
    }
    // Contention: half the desktop's cores stay busy for the whole run. The
    // monitored records were published at bootstrap, so every static policy
    // keeps trusting an idle desktop.
    const double busy_gigacycles = to_seconds(sp.duration) * 2.3 * 2 * 1.1;
    h.sim().spawn([](vstore::HomeCloud& hh, double gc) -> Task<> {
      co_await hh.desktop().host().execute(hh.desktop().app_domain(), gc, 2);
    }(h, busy_gigacycles));
    if (s.flaps) h.sim().spawn(flap_uplink(h));
    if (pol == DecisionPolicy::learned) {
      h.sim().spawn([](vstore::HomeCloud& hh, CellResult& o, int n, Duration period) -> Task<> {
        for (int i = 0; i < n; ++i) {
          co_await hh.sim().delay(period);
          o.regret_series_s.push_back(hh.placement_engine().regret_seconds());
        }
      }(h, out, wanted, sp.duration / wanted));
    }
    co_await d.drive(workload::generate(sp));
  }(hc, driver, spec, scn, policy, cell, kRegretSamples));

  const obs::Snapshot snap = hc.metrics().snapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (name.starts_with("c4h.workload.") && name.find(".latency_ns{") != std::string::npos) {
      cell.latency.merge(h);
    }
  }
  for (const workload::TenantStats& t : driver.result().tenants) {
    cell.ok += t.ok_total();
    cell.failed += t.failed;
  }
  const vstore::PlacementEngine& eng = hc.placement_engine();
  cell.decisions = eng.decisions();
  cell.switches = eng.switches();
  cell.explorations = eng.explorations();
  cell.store_vetoes = eng.store_vetoes();
  cell.regret_s = eng.regret_seconds();
  // The run can drain past the sampling window; pad to a fixed-length series
  // with the final value so every artifact has the same row set.
  while (static_cast<int>(cell.regret_series_s.size()) < kRegretSamples) {
    cell.regret_series_s.push_back(cell.regret_s);
  }
  return cell;
}

void emit_cell(obs::BenchReport& report, const std::string& scenario, DecisionPolicy policy,
               const CellResult& cell) {
  const std::string label = scenario + "/" + policy_name(policy);
  obs::add_latency_tails(report, label, "ablation.latency", cell.latency);
  report.add(label, "workload.ok", static_cast<double>(cell.ok), "count");
  report.add(label, "workload.failed", static_cast<double>(cell.failed), "count");
  if (policy != DecisionPolicy::learned) return;
  report.add(label, "placement.decisions", static_cast<double>(cell.decisions), "count");
  report.add(label, "placement.switches", static_cast<double>(cell.switches), "count");
  report.add(label, "placement.explorations", static_cast<double>(cell.explorations), "count");
  report.add(label, "placement.store_vetoes", static_cast<double>(cell.store_vetoes), "count");
  report.add(label, "placement.regret", cell.regret_s * 1e3, "ms");
  for (std::size_t i = 0; i < cell.regret_series_s.size(); ++i) {
    report.add(label + "/t=" + std::to_string(i + 1) + "of12", "placement.regret",
               cell.regret_series_s[i] * 1e3, "ms");
  }
}

void run(const bench::BenchArgs& args) {
  bench::header("Ablation — learned vs static placement across the scenario matrix",
                "ROADMAP item 4; §III-B/§VII learning-based adaptation");

  const std::vector<DecisionPolicy> policies = {
      DecisionPolicy::performance, DecisionPolicy::balanced_utilization,
      DecisionPolicy::battery_aware, DecisionPolicy::learned};

  obs::BenchReport report("ablation_design", args.seed);
  report.meta("quick", args.quick ? "true" : "false");
  report.meta("nodes", std::to_string(args.nodes));
  report.meta("scenarios", "iot_fanin,flash_crowd,mixed_tenants,uplink_flap");
  report.meta("policies", "performance,balanced,battery,learned");

  for (const ScenarioDef& scn : scenario_matrix()) {
    std::printf("\n--- scenario: %s%s ---\n", scn.name, scn.flaps ? " (uplink flaps)" : "");
    std::printf("%-12s | %8s %8s | %9s %9s %9s | %s\n", "policy", "ok", "failed", "p50(ms)",
                "p99(ms)", "p999(ms)", "engine");
    bench::row_line();
    for (const DecisionPolicy policy : policies) {
      const CellResult cell = run_cell(scn, policy, args);
      const double ms = 1e-6;
      std::string engine_col;
      if (policy == DecisionPolicy::learned) {
        engine_col = "switches=" + std::to_string(cell.switches) +
                     " explore=" + std::to_string(cell.explorations) +
                     " vetoes=" + std::to_string(cell.store_vetoes) +
                     " regret=" + std::to_string(cell.regret_s) + "s";
      }
      std::printf("%-12s | %8llu %8llu | %9.1f %9.1f %9.1f | %s\n", policy_name(policy),
                  static_cast<unsigned long long>(cell.ok),
                  static_cast<unsigned long long>(cell.failed),
                  static_cast<double>(cell.latency.quantile(50.0)) * ms,
                  static_cast<double>(cell.latency.quantile(99.0)) * ms,
                  static_cast<double>(cell.latency.quantile(99.9)) * ms, engine_col.c_str());
      emit_cell(report, scn.name, policy, cell);
    }
  }

  bench::emit(report);
  std::printf("\nacceptance: learned p99 within 5%% of the best static policy on every\n");
  std::printf("steady scenario, strictly better on uplink_flap (pinned by the golden test).\n");
}

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  c4h::run(c4h::bench::parse_args(argc, argv));
  return 0;
}
