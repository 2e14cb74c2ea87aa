// Virtualization substrate: CPU sharing, VCPU caps, memory thrash model,
// battery drain, XenSocket cost model.
#include <gtest/gtest.h>

#include "src/vmm/machine.hpp"
#include "src/vmm/xensocket.hpp"

namespace c4h::vmm {
namespace {

using sim::Simulation;
using sim::Task;

HostSpec atom_spec() {
  HostSpec s;
  s.name = "atom";
  s.cores = 2;
  s.ghz = 1.0;  // round numbers for exact timing math
  s.memory = 1024_MB;
  s.virt_overhead = 0.0;
  return s;
}

Task<> timed_exec(Simulation& sim, Host& h, Domain& d, double gcycles, int threads,
                  Duration& out) {
  const TimePoint t0 = sim.now();
  co_await h.execute(d, gcycles, threads);
  out = sim.now() - t0;
}

TEST(Host, Dom0ExistsAtConstruction) {
  Simulation sim;
  Host h{sim, atom_spec()};
  EXPECT_EQ(h.dom0().type(), DomainType::dom0);
  EXPECT_EQ(h.domains().size(), 1u);
  EXPECT_LT(h.free_memory(), 1024_MB);  // dom0 reserved some
}

TEST(Host, SingleThreadJobBoundByOneCore) {
  Simulation sim;
  Host h{sim, atom_spec()};
  Domain& vm = h.create_guest("vm", 1, 256_MB);
  Duration took{};
  sim.spawn(timed_exec(sim, h, vm, 10.0, 1, took));
  sim.run();
  // 10 Gcycles on one 1 GHz VCPU = 10 s (host has 2 cores but VCPU caps).
  EXPECT_NEAR(to_seconds(took), 10.0, 0.01);
}

TEST(Host, MultiThreadJobUsesAllVcpus) {
  Simulation sim;
  Host h{sim, atom_spec()};
  Domain& vm = h.create_guest("vm", 2, 256_MB);
  Duration took{};
  sim.spawn(timed_exec(sim, h, vm, 10.0, 4, took));
  sim.run();
  // 4 threads but only 2 VCPUs → 2 Gcycles/s → 5 s.
  EXPECT_NEAR(to_seconds(took), 5.0, 0.01);
}

TEST(Host, TwoJobsShareTheCores) {
  Simulation sim;
  Host h{sim, atom_spec()};
  Domain& vm = h.create_guest("vm", 2, 256_MB);
  Duration t1{}, t2{};
  sim.spawn(timed_exec(sim, h, vm, 10.0, 2, t1));
  sim.spawn(timed_exec(sim, h, vm, 10.0, 2, t2));
  sim.run();
  // Two 2-thread jobs on 2 cores → each ~1 Gcycle/s → 10 s.
  EXPECT_NEAR(to_seconds(t1), 10.0, 0.05);
  EXPECT_NEAR(to_seconds(t2), 10.0, 0.05);
}

TEST(Host, SingleThreadJobsDontContendBelowCoreCount) {
  Simulation sim;
  Host h{sim, atom_spec()};
  Domain& vm = h.create_guest("vm", 2, 256_MB);
  Duration t1{}, t2{};
  sim.spawn(timed_exec(sim, h, vm, 10.0, 1, t1));
  sim.spawn(timed_exec(sim, h, vm, 10.0, 1, t2));
  sim.run();
  // Two 1-thread jobs, two cores: no contention → 10 s each.
  EXPECT_NEAR(to_seconds(t1), 10.0, 0.01);
  EXPECT_NEAR(to_seconds(t2), 10.0, 0.01);
}

TEST(Host, VirtualizationOverheadSlowsExecution) {
  Simulation sim;
  HostSpec s = atom_spec();
  s.virt_overhead = 0.2;
  Host h{sim, s};
  Domain& vm = h.create_guest("vm", 1, 256_MB);
  Duration took{};
  sim.spawn(timed_exec(sim, h, vm, 8.0, 1, took));
  sim.run();
  // 1 GHz × 0.8 = 0.8 Gcycles/s → 10 s.
  EXPECT_NEAR(to_seconds(took), 10.0, 0.01);
}

TEST(Host, LateJobPreemptsFairShare) {
  Simulation sim;
  HostSpec s = atom_spec();
  s.cores = 1;
  Host h{sim, s};
  Domain& vm = h.create_guest("vm", 1, 256_MB);
  Duration t1{};
  sim.spawn(timed_exec(sim, h, vm, 10.0, 1, t1));
  Duration t2{};
  sim.spawn([](Simulation& ss, Host& hh, Domain& d, Duration& out) -> Task<> {
    co_await ss.delay(seconds(5));
    const TimePoint t0 = ss.now();
    co_await hh.execute(d, 2.0, 1);
    out = ss.now() - t0;
  }(sim, h, vm, t2));
  sim.run();
  // Job1: 5 s alone (5 Gc done), then shares 0.5 Gc/s: job2 needs 2 Gc → 4 s
  // shared; job1 then finishes remaining 3 Gc alone → total 5+4+3 = 12 s.
  EXPECT_NEAR(to_seconds(t1), 12.0, 0.05);
  EXPECT_NEAR(to_seconds(t2), 4.0, 0.05);
}

TEST(Host, JobDoneInsideItsAdmissionCostsNoEvent) {
  // Work within the completion tolerance retires as it is admitted, and its
  // execute() goes on at once: one event for the spawn and none for the job.
  Simulation sim;
  Host h{sim, atom_spec()};
  Domain& vm = h.create_guest("vm", 1, 256_MB);
  Duration took{seconds(1)};
  sim.spawn(timed_exec(sim, h, vm, 1e-7, 1, took));
  sim.run();
  EXPECT_EQ(took, Duration::zero());
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_DOUBLE_EQ(h.cpu_utilization(), 0.0);
}

TEST(Host, UtilizationReflectsLoad) {
  Simulation sim;
  Host h{sim, atom_spec()};
  Domain& vm = h.create_guest("vm", 1, 256_MB);
  EXPECT_DOUBLE_EQ(h.cpu_utilization(), 0.0);
  sim.spawn([](Host& hh, Domain& d) -> Task<> { co_await hh.execute(d, 5.0, 1); }(h, vm));
  sim.run_until(seconds(1));
  EXPECT_NEAR(h.cpu_utilization(), 0.5, 0.01);  // 1 of 2 cores busy
  sim.run();
  EXPECT_DOUBLE_EQ(h.cpu_utilization(), 0.0);
}

TEST(Host, GuestMemoryComesFromPool) {
  Simulation sim;
  Host h{sim, atom_spec()};
  const Bytes before = h.free_memory();
  h.create_guest("vm", 1, 512_MB);
  EXPECT_EQ(h.free_memory(), before - 512_MB);
}

TEST(MemorySlowdown, NoPenaltyWhenFits) {
  EXPECT_DOUBLE_EQ(memory_slowdown(100_MB, 512_MB), 1.0);
  EXPECT_DOUBLE_EQ(memory_slowdown(512_MB, 512_MB), 1.0);
}

TEST(MemorySlowdown, GrowsSuperlinearlyWithOverflow) {
  const double x2 = memory_slowdown(256_MB, 128_MB);
  const double x4 = memory_slowdown(512_MB, 128_MB);
  EXPECT_NEAR(x2, 10.0, 0.01);  // 1 + 3·1 + 6·1²
  EXPECT_GT(x4, 2.5 * x2);      // super-linear
  // Just over the edge is only mildly penalized.
  EXPECT_LT(memory_slowdown(140_MB, 128_MB), 1.6);
}

TEST(Battery, DrainsUnderLoadFasterThanIdle) {
  Simulation sim;
  HostSpec s = atom_spec();
  s.battery.capacity_wh = 30.0;
  s.battery.idle_watts = 3.0;
  s.battery.busy_watts = 15.0;

  // Idle host for one hour.
  Host idle{sim, s};
  sim.run_until(seconds(3600));
  const double idle_left = idle.battery_fraction();
  EXPECT_NEAR(idle_left, (30.0 - 3.0) / 30.0, 0.01);

  // Busy host for one hour.
  Simulation sim2;
  Host busy{sim2, s};
  Domain& vm = busy.create_guest("vm", 2, 256_MB);
  sim2.spawn([](Host& hh, Domain& d) -> Task<> {
    co_await hh.execute(d, 2.0 * 3600.0, 2);  // saturate both cores for 1 h
  }(busy, vm));
  sim2.run_until(seconds(3600));
  EXPECT_LT(busy.battery_fraction(), idle_left - 0.2);
}

TEST(Battery, MainsPoweredIsAlwaysFull) {
  Simulation sim;
  Host h{sim, atom_spec()};
  sim.run_until(seconds(100000));
  EXPECT_DOUBLE_EQ(h.battery_fraction(), 1.0);
  EXPECT_FALSE(h.battery_powered());
}

TEST(XenSocket, TransferCostIsSetupPlusStreaming) {
  Simulation sim;
  XenSocketConfig cfg;
  cfg.setup = milliseconds(9);
  cfg.base_rate = mib_per_sec(62.0);
  XenSocketChannel ch{sim, cfg};
  // 1 MB: 9 ms + 1/62 s ≈ 25 ms (Table I's inter-domain column for 1 MB).
  EXPECT_NEAR(to_milliseconds(ch.transfer_time_for(1_MB)), 25.1, 1.0);
  // 100 MB: 9 ms + 100/62 s ≈ 1622 ms (paper: 1603 ms).
  EXPECT_NEAR(to_milliseconds(ch.transfer_time_for(100_MB)), 1622.0, 30.0);
}

TEST(XenSocket, LargerRingIsFasterButSublinear) {
  XenSocketConfig small;
  XenSocketConfig big;
  big.pages = 32;
  big.page_size = 2_MB;
  EXPECT_GT(big.rate(), small.rate());
  EXPECT_LT(big.rate(), small.rate() * (big.ring_bytes() / small.ring_bytes()));
}

TEST(XenSocket, AwaitableTransferAdvancesClock) {
  Simulation sim;
  XenSocketChannel ch{sim};
  Duration took{};
  sim.spawn([](Simulation& s, XenSocketChannel& c, Duration& out) -> Task<> {
    const TimePoint t0 = s.now();
    co_await c.transfer(10_MB);
    out = s.now() - t0;
  }(sim, ch, took));
  sim.run();
  EXPECT_EQ(took, ch.transfer_time_for(10_MB));
  EXPECT_EQ(ch.transfers(), 1u);
  EXPECT_EQ(ch.bytes_moved(), 10_MB);
}

// Property: with k equal jobs on c cores (1 thread each), each runs at
// min(1, c/k) GHz.
struct JobSweepParam {
  int cores;
  int jobs;
};

class JobSweep : public ::testing::TestWithParam<JobSweepParam> {};

TEST_P(JobSweep, FairShareMatchesClosedForm) {
  const auto [cores, jobs] = GetParam();
  Simulation sim;
  HostSpec s = atom_spec();
  s.cores = cores;
  Host h{sim, s};
  Domain& vm = h.create_guest("vm", cores, 256_MB);
  std::vector<Duration> times(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    sim.spawn(timed_exec(sim, h, vm, 10.0, 1, times[static_cast<std::size_t>(i)]));
  }
  sim.run();
  const double rate = std::min(1.0, static_cast<double>(cores) / jobs);
  for (const auto& t : times) EXPECT_NEAR(to_seconds(t), 10.0 / rate, 0.05 * 10.0 / rate);
}

INSTANTIATE_TEST_SUITE_P(Grid, JobSweep,
                         ::testing::Values(JobSweepParam{1, 1}, JobSweepParam{1, 4},
                                           JobSweepParam{2, 2}, JobSweepParam{2, 5},
                                           JobSweepParam{4, 3}, JobSweepParam{4, 8}));

}  // namespace
}  // namespace c4h::vmm
