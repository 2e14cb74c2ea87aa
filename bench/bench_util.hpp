// Shared helpers for the experiment binaries: table printing, common
// workload plumbing, and machine-readable emission. Each bench regenerates
// one table/figure of the paper, prints the same rows/series the paper
// reports, and writes a `BENCH_<name>.json` artifact (schema c4h-bench-v1,
// DESIGN.md §10) for CI to archive.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/units.hpp"
#include "src/obs/bench_emit.hpp"
#include "src/vstore/home_cloud.hpp"

namespace c4h::bench {

/// The flags every bench understands. `--quick` selects the CI smoke subset,
/// `--seed N` re-seeds the whole run (same seed ⇒ byte-identical artifact),
/// `--nodes N` sets the home-cloud device count where the bench is
/// node-count-parametric, and `--neighborhoods N` sets the City's
/// neighborhood count where the bench runs over the federation tier.
struct BenchArgs {
  bool quick = false;
  std::uint64_t seed = 42;
  int nodes = 6;
  int neighborhoods = 4;
};

/// Parses the shared flags; unknown arguments are ignored so benches with
/// extra flags (or Google Benchmark's own) can layer their parsing on top.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.quick = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n > 0) a.nodes = n;
    } else if (std::strcmp(argv[i], "--neighborhoods") == 0 && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n > 0) a.neighborhoods = n;
    }
  }
  return a;
}

/// Host-side cost timer for scaling tables — the one sanctioned wall-clock
/// in the tree. Values measured with it MUST be emitted with a "-wall" unit
/// suffix (e.g. "ms-wall"): tools/bench-compare treats those series as
/// advisory (warn on regression) instead of part of the byte-stable
/// simulated artifact, and seeds/replays make no promise about them.
class WallTimer {
 public:
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

 private:
  // Host-cost measurement only: it never feeds simulated state, and the
  // emitted series carry "-wall" units that bench-compare excludes from
  // deterministic comparison.
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

/// Peak resident set of this process in MiB (Linux ru_maxrss is KiB).
/// Cumulative over the process lifetime: a sweep must visit its sizes in
/// ascending order for per-size readings to mean anything. Advisory, like
/// wall-clock — emit with a "-wall" unit suffix.
inline double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("  reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void row_line() {
  std::printf("----------------------------------------------------------------\n");
}

inline vstore::ObjectMeta make_object(const std::string& name, Bytes size,
                                      const std::string& type = "jpg",
                                      std::vector<std::string> tags = {}) {
  vstore::ObjectMeta m;
  m.name = name;
  m.type = type;
  m.size = size;
  m.tags = std::move(tags);
  return m;
}

/// Store an object (create + store) from `node`; returns the outcome. A
/// failure names the phase that failed — a capacity error during `create`
/// (metadata) means something very different from one during `store`
/// (placement), and the callers' retry/diagnosis logic needs to know which.
inline sim::Task<Result<vstore::StoreOutcome>> put_object(vstore::VStoreNode& node,
                                                          vstore::ObjectMeta meta,
                                                          vstore::StoreOptions opts = {},
                                                          obs::Ctx ctx = {}) {
  auto c = co_await node.create_object(meta, ctx);
  if (!c.ok()) {
    co_return Error{c.error().code, "create: " + c.error().message};
  }
  auto s = co_await node.store_object(meta.name, opts, ctx);
  if (!s.ok()) {
    co_return Error{s.error().code, "store: " + s.error().message};
  }
  co_return s;
}

/// Writes the report next to the binary's working directory and prints the
/// path (or the failure) so a bench run always says where its artifact went.
inline void emit(const obs::BenchReport& report) {
  auto written = report.write();
  if (written.ok()) {
    std::printf("\nartifact: %s\n", written->c_str());
  } else {
    std::fprintf(stderr, "artifact emission failed: %s\n", written.error().message.c_str());
  }
}

}  // namespace c4h::bench
