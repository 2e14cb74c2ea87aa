// Scenario: flash-crowd content sharing (§I's "content sharing between
// friends' homes" under a sudden popularity spike).
//
// A publisher tenant seeds a catalog of medium/large objects and keeps
// trickling new content; a crowd tenant fetches from that catalog with a
// strongly skewed (Zipf s=1.1) popularity. The run executes twice with the
// same seed: once steady, once with a flash-crowd window that multiplies
// the arrival rate mid-run. The artifact carries both fetch-latency tails
// ("steady" vs "flash") so the spike's p99/p999 inflation is the headline
// number — the means barely move.
#include "bench/scenario_util.hpp"

namespace c4h {
namespace {

using sim::Task;

workload::WorkloadSpec make_spec(const bench::BenchArgs& args, bool crowd) {
  const Duration duration = args.quick ? seconds(20) : seconds(80);

  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = duration;
  if (crowd) {
    workload::FlashCrowdSpec f;
    f.start = TimePoint{duration * 2 / 5};
    f.duration = duration / 5;
    f.multiplier = 8.0;
    spec.flash_crowds.push_back(f);
  }

  workload::TenantSpec publisher;
  publisher.name = "publisher";
  publisher.principal = {"publisher", vstore::TrustLevel::trusted};
  publisher.acl.allow("crowd", {vstore::Right::read});
  publisher.mix = {1.0, 0.0, 0.0, 0.0};  // keeps trickling fresh content
  publisher.object_count = args.quick ? 24 : 80;
  publisher.size = {2_MB, 8_MB};
  publisher.arrival.rate_per_sec = 1.0;
  spec.tenants.push_back(publisher);

  workload::TenantSpec crowd_tenant;
  crowd_tenant.name = "crowd";
  crowd_tenant.principal = {"crowd", vstore::TrustLevel::trusted};
  crowd_tenant.mix = {0.0, 1.0, 0.0, 0.0};
  crowd_tenant.object_count = 8;  // tiny own catalog; the draw is the publisher's
  crowd_tenant.size = {64_KB, 256_KB};
  crowd_tenant.fetch_from = {"publisher"};
  crowd_tenant.zipf_s = 1.1;  // everyone wants the same few objects
  crowd_tenant.arrival.rate_per_sec = args.quick ? 6.0 : 15.0;
  spec.tenants.push_back(crowd_tenant);

  return spec;
}

/// One full run (own HomeCloud); prints the tenant table and appends the
/// crowd tenant's fetch tails to `report` under the run's tag.
void run_once(const bench::BenchArgs& args, bool crowd, obs::BenchReport& report) {
  const char* tag = crowd ? "flash" : "steady";
  std::printf("\n--- %s run ---\n", tag);

  const workload::WorkloadSpec spec = make_spec(args, crowd);
  vstore::HomeCloud hc{bench::scenario_config(args)};
  hc.bootstrap();

  workload::Driver driver{hc.world(), spec};
  hc.run([](workload::Driver& d, const workload::WorkloadSpec& sp) -> Task<> {
    const workload::Schedule schedule = workload::generate(sp);
    std::printf("schedule: %zu ops (%zu store / %zu fetch)\n\n", schedule.ops.size(),
                schedule.count(workload::OpKind::store),
                schedule.count(workload::OpKind::fetch));
    co_await d.drive(schedule);
  }(driver, spec));

  bench::print_tenant_table(driver.result());

  for (const workload::TenantStats& t : driver.result().tenants) {
    const std::string label = std::string(tag) + ":" + t.name;
    report.add(label, "workload.issued", static_cast<double>(t.issued_total()), "count");
    report.add(label, "workload.ok", static_cast<double>(t.ok_total()), "count");
    report.add(label, "workload.failed", static_cast<double>(t.failed), "count");
  }
  for (const workload::TenantStats& t : driver.result().tenants) {
    const obs::LogHistogram& fetch = t.latency[static_cast<std::size_t>(workload::OpKind::fetch)];
    if (t.name == "crowd" && fetch.count() > 0) {
      obs::add_latency_tails(report, tag, "workload.fetch.latency", fetch);
    }
  }
}

void run(const bench::BenchArgs& args) {
  bench::header("Scenario — flash-crowd content sharing",
                "§I content sharing under a popularity spike");

  obs::BenchReport report("scenario_flash_crowd", args.seed);
  report.meta("quick", args.quick ? "true" : "false");
  report.meta("nodes", std::to_string(args.nodes));
  report.meta("crowd_multiplier", "8");

  run_once(args, /*crowd=*/false, report);
  run_once(args, /*crowd=*/true, report);
  bench::emit(report);

  std::printf("\nshape checks: identical schedules before the crowd window; the\n");
  std::printf("flash run's fetch p99/p999 sit above the steady run's.\n");
}

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  c4h::run(c4h::bench::parse_args(argc, argv));
  return 0;
}
