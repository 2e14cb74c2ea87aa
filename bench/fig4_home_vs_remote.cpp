// Figure 4: latency and latency variation of store/fetch to the home cloud
// vs the remote public cloud, across object sizes.
//
// Paper's finding: remote-cloud latency and especially its *variability*
// are far higher than home-cloud latency, growing with object size; store
// (upload) is worse than fetch (download) because of the asymmetric uplink.
#include "bench/bench_util.hpp"

namespace c4h {
namespace {

using bench::make_object;
using bench::put_object;
using sim::Task;

constexpr int kReps = 8;

struct Cell {
  Accumulator store_s;
  Accumulator fetch_s;
};

void run() {
  const std::vector<Bytes> sizes{1_MB, 2_MB, 5_MB, 10_MB, 20_MB, 50_MB, 100_MB};

  bench::header("Fig 4 — Home vs remote cloud latency (store & fetch)",
                "ICDCS'11 Cloud4Home, Figure 4");

  std::printf("%10s | %14s %14s | %14s %14s\n", "size", "home store(s)", "home fetch(s)",
              "cloud store(s)", "cloud fetch(s)");
  std::printf("%10s | %14s %14s | %14s %14s\n", "", "mean±sd", "mean±sd", "mean±sd", "mean±sd");
  bench::row_line();

  obs::BenchReport report("fig4_home_vs_remote", 1000);
  report.meta("reps", std::to_string(kReps));

  for (const Bytes size : sizes) {
    Cell home, remote;
    for (int rep = 0; rep < kReps; ++rep) {
      // Fresh cloud per rep so WAN jitter draws differ; the home dataset is
      // "distributed across all nodes", so stores originate at one node and
      // fetches happen from another.
      vstore::HomeCloudConfig cfg;
      cfg.seed = 1000 + static_cast<std::uint64_t>(rep);
      cfg.start_monitors = false;
      vstore::HomeCloud hc{cfg};
      hc.bootstrap();

      hc.run([](vstore::HomeCloud& h, Bytes sz, int rep_i, Cell& hm, Cell& rm) -> Task<> {
        auto& a = h.node(static_cast<std::size_t>(rep_i) % h.node_count());
        auto& b = h.node((static_cast<std::size_t>(rep_i) + 2) % h.node_count());

        // Home store+fetch.
        {
          const auto t0 = h.sim().now();
          auto s = co_await bench::put_object(a, bench::make_object("h.bin", sz));
          if (s.ok()) hm.store_s.add(to_seconds(h.sim().now() - t0));
          const auto t1 = h.sim().now();
          auto f = co_await b.fetch_object("h.bin");
          if (f.ok()) hm.fetch_s.add(to_seconds(h.sim().now() - t1));
        }
        // Remote store+fetch (policy forces the cloud).
        {
          vstore::StoreOptions opts;
          opts.policy.fallback = vstore::StoreTarget::remote_cloud;
          const auto t0 = h.sim().now();
          auto s = co_await bench::put_object(a, bench::make_object("r.bin", sz, "avi"), opts);
          if (s.ok()) rm.store_s.add(to_seconds(h.sim().now() - t0));
          const auto t1 = h.sim().now();
          auto f = co_await b.fetch_object("r.bin");
          if (f.ok()) rm.fetch_s.add(to_seconds(h.sim().now() - t1));
        }
      }(hc, size, rep, home, remote));
    }

    std::printf("%8.0fMB | %7.2f±%-6.2f %7.2f±%-6.2f | %7.1f±%-6.1f %7.1f±%-6.1f\n",
                to_mib(size), home.store_s.mean(), home.store_s.stddev(), home.fetch_s.mean(),
                home.fetch_s.stddev(), remote.store_s.mean(), remote.store_s.stddev(),
                remote.fetch_s.mean(), remote.fetch_s.stddev());

    const std::string label = std::to_string(size / 1_MB) + "MB";
    report.add(label, "home.store.mean", home.store_s.mean(), "s");
    report.add(label, "home.store.sd", home.store_s.stddev(), "s");
    report.add(label, "home.fetch.mean", home.fetch_s.mean(), "s");
    report.add(label, "home.fetch.sd", home.fetch_s.stddev(), "s");
    report.add(label, "cloud.store.mean", remote.store_s.mean(), "s");
    report.add(label, "cloud.store.sd", remote.store_s.stddev(), "s");
    report.add(label, "cloud.fetch.mean", remote.fetch_s.mean(), "s");
    report.add(label, "cloud.fetch.sd", remote.fetch_s.stddev(), "s");
  }

  std::printf("\nshape checks: cloud ≫ home at every size; cloud variability ≫ home;\n");
  std::printf("cloud store (thin uplink) slower than cloud fetch.\n");
  bench::emit(report);
}

}  // namespace
}  // namespace c4h

int main() {
  c4h::run();
  return 0;
}
