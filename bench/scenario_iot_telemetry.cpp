// Scenario: smart-home IoT telemetry fan-in (after the Clome smart-home
// cloud motivation, PAPERS.md).
//
// A swarm of sensors pushes small readings into the home cloud at a high
// open-loop rate that follows a compressed diurnal occupancy cycle; a
// dashboard application runs closed-loop clients that fetch recent readings
// and invoke an aggregation service over them (store-dominated fan-in with
// a read/compute tail — the inverse of the paper's fetch-heavy media
// scenarios). Reported numbers are the per-tenant p50/p99/p999 latency
// tails; at fan-in rates the store p999 is the capacity signal, not the
// mean.
#include "bench/scenario_util.hpp"

namespace c4h {
namespace {

using sim::Task;

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

void run(const bench::BenchArgs& args) {
  bench::header("Scenario — IoT telemetry fan-in",
                "DESIGN.md §11 / Clome smart-home motivation");

  const Duration duration = args.quick ? seconds(20) : seconds(90);

  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = duration;
  spec.diurnal.enabled = true;
  spec.diurnal.period = seconds(30);
  spec.diurnal.amplitude = 0.6;

  workload::TenantSpec sensors;
  sensors.name = "sensors";
  sensors.principal = {"sensors", vstore::TrustLevel::trusted};
  sensors.acl.allow("dashboard", {vstore::Right::read, vstore::Right::execute});
  sensors.object_type = "json";
  sensors.mix = {1.0, 0.0, 0.0, 0.0};  // pure fan-in
  sensors.object_count = args.quick ? 48 : 200;
  sensors.size = {4_KB, 64_KB};
  sensors.zipf_s = 0.6;  // sensors re-report: hot readings overwrite often
  sensors.arrival.rate_per_sec = args.quick ? 12.0 : 30.0;
  spec.tenants.push_back(sensors);

  workload::TenantSpec dashboard;
  dashboard.name = "dashboard";
  dashboard.principal = {"dashboard", vstore::TrustLevel::trusted};
  dashboard.mix = {0.0, 0.6, 0.3, 0.1};
  dashboard.object_count = 4;  // its own config blobs; reads target sensors
  dashboard.size = {16_KB, 64_KB};
  dashboard.fetch_from = {"sensors"};
  dashboard.service = aggregate_profile();
  dashboard.closed.clients = 2;
  dashboard.closed.mean_think = milliseconds(400);
  spec.tenants.push_back(dashboard);

  vstore::HomeCloud hc{bench::scenario_config(args)};
  hc.bootstrap();
  hc.registry().add_profile(*dashboard.service);

  workload::Driver driver{hc.world(), spec};
  // The dashboard tenant's nodes (partition: node i → tenant i mod 2) host
  // the aggregation service.
  hc.run([](vstore::HomeCloud& h, workload::Driver& d, const workload::WorkloadSpec& sp,
            const services::ServiceProfile& svc) -> Task<> {
    for (std::size_t i = 1; i < h.node_count(); i += 2) {
      h.node(i).deploy_service(svc);
      (void)co_await h.node(i).publish_services();
    }
    const workload::Schedule schedule = workload::generate(sp);
    std::printf("schedule: %zu ops (%zu store / %zu fetch / %zu process / %zu f+p), %zu objects\n\n",
                schedule.ops.size(), schedule.count(workload::OpKind::store),
                schedule.count(workload::OpKind::fetch),
                schedule.count(workload::OpKind::process),
                schedule.count(workload::OpKind::fetch_process), schedule.objects.size());
    co_await d.drive(schedule);
  }(hc, driver, spec, *dashboard.service));

  bench::print_tenant_table(driver.result());

  obs::BenchReport report("scenario_iot_telemetry", args.seed);
  report.meta("quick", args.quick ? "true" : "false");
  report.meta("nodes", std::to_string(hc.node_count()));
  report.meta("duration_s", std::to_string(static_cast<int>(to_seconds(duration))));
  report.meta("sensor_rate_per_s", std::to_string(spec.tenants[0].arrival.rate_per_sec));
  bench::emit_scenario(report, driver.result());

  std::printf("\nshape checks: store volume dominates (fan-in); dashboard process tails\n");
  std::printf("sit above its fetch tails (compute + movement); zero denied/wrong ops.\n");
}

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  c4h::run(c4h::bench::parse_args(argc, argv));
  return 0;
}
