// Scenario: mixed-tenant steady state — four applications sharing one home
// cloud (the paper's §I application mix, run concurrently instead of in
// isolation).
//
//   media         private mp3 library, fetch-heavy, privacy placement
//   surveillance  camera frames, store + on-path detection service
//   iot           sensor fan-in: tiny objects at high rate
//   guest         an UNTRUSTED VM trying to read the media library — every
//                 attempt must come back permission_denied (acl.hpp)
//
// The point of running them together: per-tenant tail isolation. The
// artifact carries each tenant's latency tails plus the guest's denial
// count (which must equal its issue count).
#include "bench/scenario_util.hpp"

namespace c4h {
namespace {

using sim::Task;

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

workload::WorkloadSpec make_spec(const bench::BenchArgs& args) {
  const Duration duration = args.quick ? seconds(20) : seconds(90);

  workload::WorkloadSpec spec;
  spec.seed = args.seed;
  spec.duration = duration;
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
  media.object_count = args.quick ? 24 : 96;
  media.size = {4_MB, 16_MB};
  media.arrival.rate_per_sec = args.quick ? 4.0 : 8.0;
  spec.tenants.push_back(media);

  workload::TenantSpec surveillance;
  surveillance.name = "surveillance";
  surveillance.principal = {"surveillance", vstore::TrustLevel::trusted};
  surveillance.mix = {0.5, 0.0, 0.5, 0.0};
  surveillance.object_count = args.quick ? 24 : 64;
  surveillance.size = {256_KB, 1_MB};
  surveillance.service = detect_profile();
  surveillance.arrival.rate_per_sec = args.quick ? 3.0 : 6.0;
  spec.tenants.push_back(surveillance);

  workload::TenantSpec iot;
  iot.name = "iot";
  iot.principal = {"iot", vstore::TrustLevel::trusted};
  iot.object_type = "json";
  iot.mix = {0.9, 0.1, 0.0, 0.0};
  iot.object_count = args.quick ? 48 : 160;
  iot.size = {4_KB, 32_KB};
  iot.zipf_s = 0.6;
  iot.arrival.rate_per_sec = args.quick ? 10.0 : 25.0;
  spec.tenants.push_back(iot);

  workload::TenantSpec guest;
  guest.name = "guest";
  guest.principal = {"guest", vstore::TrustLevel::untrusted};
  guest.mix = {0.0, 1.0, 0.0, 0.0};
  guest.object_count = 0;        // owns nothing: every fetch targets media
  guest.fetch_from = {"media"};  // private objects: untrusted ⇒ denied
  guest.arrival.rate_per_sec = 2.0;
  spec.tenants.push_back(guest);

  return spec;
}

void run(const bench::BenchArgs& args) {
  bench::header("Scenario — mixed-tenant steady state",
                "§I application mix run concurrently; acl.hpp isolation");

  bench::BenchArgs a = args;
  if (a.nodes < 4) a.nodes = 4;  // one node per tenant minimum

  const workload::WorkloadSpec spec = make_spec(a);
  vstore::HomeCloud hc{bench::scenario_config(a)};
  hc.bootstrap();
  hc.registry().add_profile(*spec.tenants[1].service);

  workload::Driver driver{hc.world(), spec};
  // Surveillance is tenant 1 of 4: its partition (node i ≡ 1 mod 4) hosts
  // the detection service.
  hc.run([](vstore::HomeCloud& h, workload::Driver& d, const workload::WorkloadSpec& sp) -> Task<> {
    for (std::size_t i = 1; i < h.node_count(); i += 4) {
      h.node(i).deploy_service(*sp.tenants[1].service);
      (void)co_await h.node(i).publish_services();
    }
    const workload::Schedule schedule = workload::generate(sp);
    std::printf("schedule: %zu ops across %zu tenants, %zu objects\n\n",
                schedule.ops.size(), sp.tenants.size(), schedule.objects.size());
    co_await d.drive(schedule);
  }(hc, driver, spec));

  bench::print_tenant_table(driver.result());

  const workload::TenantStats& guest = driver.result().tenants.back();
  std::printf("\nguest (untrusted): %llu issued, %llu denied — every media read refused\n",
              static_cast<unsigned long long>(guest.issued_total()),
              static_cast<unsigned long long>(guest.denied));

  obs::BenchReport report("scenario_mixed_tenants", a.seed);
  report.meta("quick", a.quick ? "true" : "false");
  report.meta("nodes", std::to_string(hc.node_count()));
  report.meta("tenants", std::to_string(spec.tenants.size()));
  bench::emit_scenario(report, driver.result());

  std::printf("\nshape checks: guest denied == guest issued (trust isolation holds);\n");
  std::printf("iot store p50 well under media fetch p50 (small objects stay cheap).\n");
}

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  c4h::run(c4h::bench::parse_args(argc, argv));
  return 0;
}
