// perfbench — runs one benchmark workload and prints one JSON object.
//
//   perfbench --workload <flash_fetch|iot_ingest|city_fetch> --seed <n>
//             [--traced] [--small] [--fingerprint]
//
// One repeat: every round's set-up and measured phase, reporting the host
// timings, this process's peak RSS and the (seed-exact) simulated results
// with their output checks. --traced turns every deployment's tracer on and
// drives the measured phase step by step, adding the per-layer rows.
// --small runs the reduced size the seed test uses. --fingerprint only
// generates the schedules and prints their digest.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <queue>
#include <string>

#include "perfbench/perfbench.hpp"

namespace c4h::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool small = false;
  bool fingerprint_only = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--traced") {
      a.traced = true;
    } else if (k == "--small") {
      a.small = true;
    } else if (k == "--fingerprint") {
      a.fingerprint_only = true;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

/// FNV-1a over every round's Schedule::fingerprint(): a short, stable
/// digest of the run's complete input (catalogs and op streams).
std::string digest(const WorkloadDef& base) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int r = 0; r < base.rounds; ++r) {
    WorkloadDef w = base;
    w.spec.seed = round_seed(base.spec.seed, r);
    for (const char c : workload::generate(w.spec).fingerprint()) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// The seed-exact outcome of a repeat: per-class exact quantiles and
/// counts, and the output checks.
struct SimResult {
  std::array<std::size_t, kOpClasses> ok{};
  std::array<std::size_t, kOpClasses> failed{};
  std::array<std::optional<std::int64_t>, kOpClasses> p50{};
  std::array<std::optional<std::int64_t>, kOpClasses> p99{};
  std::size_t attempted = 0;
  std::size_t failed_total = 0;
  std::uint64_t wrong = 0;
  std::size_t pending = 0;
  std::uint64_t preload_failures = 0;
  bool finished = false;
};

SimResult summarize(const Samples& samples) {
  SimResult out;
  std::array<std::vector<std::int64_t>, kOpClasses> ok_ns;
  for (const OpSample& s : samples) {
    const auto c = static_cast<std::size_t>(s.cls);
    if (s.err == Errc::ok) {
      ok_ns[c].push_back(s.latency_ns);
    } else {
      ++out.failed[c];
    }
  }
  for (std::size_t c = 0; c < kOpClasses; ++c) {
    std::sort(ok_ns[c].begin(), ok_ns[c].end());
    out.ok[c] = ok_ns[c].size();
    out.p50[c] = exact_quantile(ok_ns[c], out.failed[c], 50.0);
    out.p99[c] = exact_quantile(ok_ns[c], out.failed[c], 99.0);
    out.attempted += out.ok[c] + out.failed[c];
    out.failed_total += out.failed[c];
  }
  return out;
}

/// The host-speed reference. A shared host runs this process anywhere from
/// 1x to 1.7x slower from one second to the next, and every phase of the
/// process slows alike. So between rounds the repeat runs a fixed piece of
/// work that uses no code under src/ until its CPU time is kShare of the
/// rounds' CPU time so far. The reference's CPU time over its nominal time
/// is the slowdown the rounds ran at, and dividing by it gives the rounds'
/// CPU time at the reference speed.
class Reference {
 public:
  void keep_up(double measured_cpu_s) {
    while (cpu_s_ < kShare * measured_cpu_s) {
      const CpuClock clock;
      sink_ = chunk(sink_);
      cpu_s_ += clock.elapsed_s();
      ++chunks_;
    }
  }

  /// Reference CPU time over its nominal time (1 at the nominal speed).
  double slowdown() const {
    return chunks_ == 0 ? 1.0 : cpu_s_ / (static_cast<double>(chunks_) * kNominalChunkS);
  }

 private:
  static constexpr double kShare = 0.5;
  /// One chunk's CPU time on the reference host (a 4-core x86-64 VM, GCC 12
  /// Release build) when that host runs at its fastest.
  static constexpr double kNominalChunkS = 1e-3;
  static constexpr int kChunkOps = 4096;

  /// A splitmix64 stream churning a small event heap and ordered map: the
  /// simulator's own mix of heap, tree and allocator work, in a few hundred
  /// KB, so it adds nothing to the process's peak RSS.
  static std::uint64_t chunk(std::uint64_t x) {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
    std::map<std::uint64_t, std::uint64_t> tree;
    for (int i = 0; i < kChunkOps; ++i) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      heap.push(z >> 8);
      tree[z & 0xFFFFF] += z;
      if (heap.size() > 1024) heap.pop();
      if (tree.size() > 2048) tree.erase(tree.begin());
    }
    return x ^ heap.top() ^ tree.rbegin()->second;
  }

  double cpu_s_ = 0.0;
  std::uint64_t chunks_ = 0;
  volatile std::uint64_t sink_ = 1;  // keeps the chunks from being optimized away
};

struct Repeat {
  SimResult sim;
  double setup_cpu_s = 0.0;  // summed over rounds
  double cpu_s = 0.0;
  double slowdown = 1.0;
  std::uint64_t events = 0;
  LayerReport layers;
};

/// One repeat: every round on a fresh deployment. Traced, each round's
/// tracers are on and its measured phase runs under the StepProbe.
Repeat run_repeat(const WorkloadDef& base, bool traced) {
  Repeat rep;
  Samples samples;
  StepProbe probe;
  LayerCounters counters;
  SpanTotals spans;
  std::uint64_t wrong = 0;
  std::size_t pending = 0;
  std::uint64_t preload_failures = 0;
  bool finished = true;
  Reference reference;
  for (int r = 0; r < base.rounds; ++r) {
    WorkloadDef w = base;
    w.spec.seed = round_seed(base.spec.seed, r);
    const CpuClock setup_cpu;
    Deployment d{w};
    const workload::Schedule schedule = workload::generate(w.spec);
    Replayer replayer{d, w, schedule};
    finished = drive(d.sim(), replayer.preload()) && finished;
    rep.setup_cpu_s += setup_cpu.elapsed_s();

    const LayerCounters before = read_counters(d);
    const std::uint64_t events0 = d.sim().events_executed();
    if (traced) {
      for (vstore::HomeCloud* h : d.homes()) h->tracer().set_enabled(true);
    }
    const CpuClock cpu_clock;
    finished = (traced ? probe.drive(d, replayer.run()) : drive(d.sim(), replayer.run())) &&
               finished;
    rep.cpu_s += cpu_clock.elapsed_s();
    rep.events += d.sim().events_executed() - events0;
    if (traced) {
      add_delta(counters, before, read_counters(d));
      attribute_spans(d, replayer.samples(), spans);
    }
    wrong += replayer.wrong_sizes();
    pending += replayer.pending();
    preload_failures += replayer.preload_failures();
    samples.insert(samples.end(), std::make_move_iterator(replayer.samples().begin()),
                   std::make_move_iterator(replayer.samples().end()));
    reference.keep_up(rep.setup_cpu_s + rep.cpu_s);
  }
  rep.slowdown = reference.slowdown();
  rep.sim = summarize(samples);
  rep.sim.wrong = wrong;
  rep.sim.pending = pending;
  rep.sim.preload_failures = preload_failures;
  rep.sim.finished = finished;
  if (traced) {
    probe.report(rep.layers);
    report_counters(counters, rep.layers);
    report_samples(samples, spans, rep.layers);
  }
  return rep;
}

void print_opt(const std::string& key, const std::optional<std::int64_t>& v) {
  if (v.has_value()) {
    std::printf("\"%s\":%" PRId64, key.c_str(), *v);
  } else {
    std::printf("\"%s\":null", key.c_str());
  }
}

void print_sim(const SimResult& s) {
  std::printf("\"sim\":{");
  for (std::size_t c = 0; c < kOpClasses; ++c) {
    const std::string n = to_string(static_cast<OpClass>(c));
    std::printf("%s\"%s_ok\":%zu,\"%s_failed\":%zu,", c == 0 ? "" : ",", n.c_str(), s.ok[c],
                n.c_str(), s.failed[c]);
    print_opt(n + "_p50_ns", s.p50[c]);
    std::printf(",");
    print_opt(n + "_p99_ns", s.p99[c]);
  }
  std::printf("},\"attempted\":%zu,\"failed\":%zu,\"wrong\":%" PRIu64
              ",\"pending\":%zu,\"preload_failures\":%" PRIu64 ",\"finished\":%s",
              s.attempted, s.failed_total, s.wrong, s.pending, s.preload_failures,
              s.finished ? "true" : "false");
}

int run(const Args& a) {
  const std::optional<WorkloadDef> w = make_workload(a.workload, a.seed, a.small);
  if (!w.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (a.fingerprint_only) {
    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"fingerprint\":\"%s\"}\n",
                a.workload.c_str(), a.seed, digest(*w).c_str());
    return 0;
  }

  const Repeat rep = run_repeat(*w, a.traced);
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s,\"fingerprint\":\"%s\",",
              a.workload.c_str(), a.seed, a.traced ? "true" : "false", digest(*w).c_str());
  print_sim(rep.sim);
  std::printf(",\"host\":{\"setup_cpu_s\":%.9g,\"cpu_s\":%.9g,\"slowdown\":%.9g"
              ",\"events\":%" PRIu64 ",\"peak_rss_mb\":%.6f}",
              rep.setup_cpu_s, rep.cpu_s, rep.slowdown, rep.events, peak_rss_mb());
  std::printf(",\"layers\":{");
  bool comma = false;
  for (const auto& [k, v] : rep.layers) {
    std::printf("%s\"%s\":%.17g", comma ? "," : "", k.c_str(), v);
    comma = true;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace c4h::perfbench

int main(int argc, char** argv) {
  c4h::perfbench::Args a;
  if (!c4h::perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> [--traced] [--small]\n"
                 "                 [--fingerprint]\n");
    return 2;
  }
  return c4h::perfbench::run(a);
}
