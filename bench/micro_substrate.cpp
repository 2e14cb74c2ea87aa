// Substrate microbenchmarks (google-benchmark): the building blocks whose
// costs underlie every experiment — hashing, the serializer, the fair-share
// solver, overlay routing, and the event engine.
//
// Besides the console table, the run writes BENCH_micro_substrate.json
// (schema c4h-bench-v1) with one point per benchmark. These are wall-clock
// timings — the one artifact whose values legitimately vary run-to-run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/common/rng.hpp"
#include "src/common/serial.hpp"
#include "src/common/sha1.hpp"
#include "src/mon/monitor.hpp"
#include "src/net/fairshare.hpp"
#include "src/obs/bench_emit.hpp"
#include "src/overlay/chimera_node.hpp"
#include "src/sim/simulation.hpp"

namespace c4h {
namespace {

void BM_Sha1Key(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Key::from_name("object-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_Sha1Key);

void BM_Sha1Throughput(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(64)->Arg(4096)->Arg(65536);

void BM_SerializeResourceRecord(benchmark::State& state) {
  mon::ResourceRecord rec;
  rec.node = Key::from_name("node");
  rec.cpu_load = 0.4;
  rec.free_memory = 512_MB;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.serialize());
  }
}
BENCHMARK(BM_SerializeResourceRecord);

void BM_DeserializeResourceRecord(benchmark::State& state) {
  mon::ResourceRecord rec;
  rec.node = Key::from_name("node");
  const Buffer b = rec.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mon::ResourceRecord::deserialize(b));
  }
}
BENCHMARK(BM_DeserializeResourceRecord);

void BM_FairShareSolver(benchmark::State& state) {
  const auto nflows = static_cast<std::size_t>(state.range(0));
  std::vector<Rate> caps(8, 1e8);
  std::vector<std::uint32_t> links;
  std::vector<Rate> flow_caps;
  Rng rng{11};
  for (std::size_t f = 0; f < nflows; ++f) {
    links.push_back(static_cast<std::uint32_t>(rng.below(8)));
    flow_caps.push_back(1e6 + rng.uniform() * 1e8);
  }
  net::MaxMinSolver solver;
  for (auto _ : state) {
    solver.clear();
    for (std::size_t f = 0; f < nflows; ++f) solver.add_flow({&links[f], 1}, flow_caps[f]);
    solver.solve([&caps](std::uint32_t l) { return caps[l]; });
    benchmark::DoNotOptimize(solver.rate(0));
  }
}
BENCHMARK(BM_FairShareSolver)->Arg(4)->Arg(16)->Arg(64);

void BM_NextHopComputation(benchmark::State& state) {
  sim::Simulation sim;
  vmm::HostSpec spec;
  spec.name = "h";
  vmm::Host host{sim, spec};
  overlay::ChimeraNode node{Key::from_name("self"), "self", host};
  for (int i = 0; i < 64; ++i) {
    node.add_peer(Key::from_name("peer-" + std::to_string(i)), {});
  }
  Rng rng{13};
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.next_hop(Key{rng.below(Key::kMask)}));
  }
}
BENCHMARK(BM_NextHopComputation);

void BM_EventEngineChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(milliseconds(i % 100), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventEngineChurn);

// Console output as usual, plus every run collected for the JSON artifact.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      report_->add(r.benchmark_name(), "time.real", r.GetAdjustedRealTime(),
                   benchmark::GetTimeUnitString(r.time_unit));
      if (r.counters.find("bytes_per_second") != r.counters.end()) {
        report_->add(r.benchmark_name(), "throughput",
                     r.counters.at("bytes_per_second") / (1024.0 * 1024.0), "MiB/s");
      }
    }
  }

  obs::BenchReport* report_ = nullptr;
};

}  // namespace
}  // namespace c4h

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  c4h::obs::BenchReport report("micro_substrate", 0);
  report.meta("timing", "wall-clock");
  c4h::CollectingReporter reporter;
  reporter.report_ = &report;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  auto written = report.write();
  if (written.ok()) {
    std::printf("artifact: %s\n", written->c_str());
  } else {
    std::fprintf(stderr, "artifact emission failed: %s\n", written.error().message.c_str());
  }
  return 0;
}
