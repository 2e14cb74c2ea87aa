// Shared plumbing for the `scenario_*` bench family (DESIGN.md §11): a
// HomeCloudConfig derived from the common --seed/--nodes flags, a per-tenant
// result table, and the c4h-bench-v1 emission that extends the series with
// p50/p99/p999 tail-latency rows pulled from the workload histograms.
#pragma once

#include "bench/bench_util.hpp"
#include "src/workload/workload.hpp"

namespace c4h::bench {

inline vstore::HomeCloudConfig scenario_config(const BenchArgs& args) {
  vstore::HomeCloudConfig cfg;
  cfg.netbooks = args.nodes > 1 ? args.nodes - 1 : 1;
  cfg.with_desktop = args.nodes > 1;
  cfg.seed = args.seed;
  cfg.start_monitors = false;
  return cfg;
}

/// Per-tenant outcome counts plus the fetch-latency tails — the console
/// companion of the JSON series.
inline void print_tenant_table(const workload::DriveResult& result,
                               const obs::Registry& registry) {
  std::printf("%-14s | %8s %8s %8s %8s %8s | %9s %9s %9s\n", "tenant", "issued", "ok",
              "failed", "denied", "wrong", "p50(ms)", "p99(ms)", "p999(ms)");
  row_line();
  const obs::Snapshot snap = registry.snapshot();
  for (const workload::TenantStats& t : result.tenants) {
    // The headline latency column: the tenant's busiest op kind.
    const workload::OpKind kinds[] = {workload::OpKind::fetch, workload::OpKind::store,
                                      workload::OpKind::process,
                                      workload::OpKind::fetch_process};
    const obs::LogHistogram* h = nullptr;
    std::uint64_t best = 0;
    for (const workload::OpKind k : kinds) {
      const std::string name = "c4h.workload." + std::string(workload::to_string(k)) +
                               ".latency_ns{tenant=" + t.name + "}";
      const auto it = snap.histograms.find(name);
      if (it != snap.histograms.end() && it->second.count() > best) {
        best = it->second.count();
        h = &it->second;
      }
    }
    const double ms = 1e-6;
    std::printf("%-14s | %8llu %8llu %8llu %8llu %8llu | %9.1f %9.1f %9.1f\n",
                t.name.c_str(), static_cast<unsigned long long>(t.issued_total()),
                static_cast<unsigned long long>(t.ok_total()),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.denied),
                static_cast<unsigned long long>(t.wrong),
                h != nullptr ? static_cast<double>(h->quantile(50.0)) * ms : 0.0,
                h != nullptr ? static_cast<double>(h->quantile(99.0)) * ms : 0.0,
                h != nullptr ? static_cast<double>(h->quantile(99.9)) * ms : 0.0);
  }
  if (!result.errors.empty()) {
    std::printf("failures:");
    for (const auto& [code, n] : result.errors) {
      std::printf(" %s=%llu", code.c_str(), static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }
}

/// Adds the per-tenant outcome counters and every workload latency tail
/// series to the report, then writes the artifact.
inline void emit_scenario(obs::BenchReport& report, const workload::DriveResult& result,
                          const obs::Registry& registry) {
  for (const workload::TenantStats& t : result.tenants) {
    report.add(t.name, "workload.issued", static_cast<double>(t.issued_total()), "count");
    report.add(t.name, "workload.ok", static_cast<double>(t.ok_total()), "count");
    report.add(t.name, "workload.failed", static_cast<double>(t.failed), "count");
    report.add(t.name, "workload.denied", static_cast<double>(t.denied), "count");
    report.add(t.name, "workload.wrong", static_cast<double>(t.wrong), "count");
  }
  workload::emit_tail_series(report, registry);
  emit(report);
}

}  // namespace c4h::bench
