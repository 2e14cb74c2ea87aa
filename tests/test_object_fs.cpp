// Simulated per-node object file system: bins, capacity accounting,
// overwrite semantics, timing model.
#include <gtest/gtest.h>

#include "src/vstore/object_fs.hpp"

namespace c4h::vstore {
namespace {

using sim::Simulation;
using sim::Task;

template <typename Fn>
void run(Simulation& sim, Fn&& fn) {
  sim.run_task(fn());
}

TEST(ObjectFs, WriteReadRoundTrip) {
  Simulation sim;
  ObjectFs fs{sim};
  run(sim, [&]() -> Task<> {
    auto w = co_await fs.write("a.jpg", 2_MB, Bin::mandatory);
    EXPECT_TRUE(w.ok());
    EXPECT_TRUE(fs.contains("a.jpg"));
    EXPECT_EQ(fs.size_of("a.jpg"), 2_MB);
    auto r = co_await fs.read("a.jpg");
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, 2_MB);
    }
  });
}

TEST(ObjectFs, RemoveDuringTransferDoesNotDisturbInFlightRead) {
  // Regression: read() dereferenced its files_ iterator after the transfer
  // delay; a remove (or table-rehashing write) landing inside the delay left
  // it dangling. The size is now copied before suspending, so the in-flight
  // read completes with the size it started with.
  Simulation sim;
  ObjectFs fs{sim};
  run(sim, [&]() -> Task<> {
    auto w = co_await fs.write("victim.bin", 4_MB, Bin::mandatory);
    EXPECT_TRUE(w.ok());
    // Erase the entry and churn the table while the read is mid-transfer.
    sim.schedule(milliseconds(1), [&fs] {
      EXPECT_TRUE(fs.remove("victim.bin").ok());
    });
    sim.spawn([](ObjectFs& f) -> Task<> {
      for (int i = 0; i < 64; ++i) {
        (void)co_await f.write("churn-" + std::to_string(i), 1_KB, Bin::voluntary);
      }
    }(fs));
    auto r = co_await fs.read("victim.bin");
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, 4_MB);
    }
    EXPECT_FALSE(fs.contains("victim.bin"));
  });
}

TEST(ObjectFs, ReadMissingFileFails) {
  Simulation sim;
  ObjectFs fs{sim};
  run(sim, [&]() -> Task<> {
    auto r = co_await fs.read("ghost");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::not_found);
  });
}

TEST(ObjectFs, BinsAccountSeparately) {
  Simulation sim;
  ObjectFsConfig cfg;
  cfg.mandatory_capacity = 10_MB;
  cfg.voluntary_capacity = 5_MB;
  ObjectFs fs{sim, cfg};
  run(sim, [&]() -> Task<> {
    (void)co_await fs.write("m.bin", 4_MB, Bin::mandatory);
    (void)co_await fs.write("v.bin", 2_MB, Bin::voluntary);
    EXPECT_EQ(fs.mandatory_used(), 4_MB);
    EXPECT_EQ(fs.voluntary_used(), 2_MB);
    EXPECT_EQ(fs.mandatory_free(), 6_MB);
    EXPECT_EQ(fs.voluntary_free(), 3_MB);
    EXPECT_EQ(fs.file_count(), 2u);
  });
}

TEST(ObjectFs, FullBinRejectsWrite) {
  Simulation sim;
  ObjectFsConfig cfg;
  cfg.mandatory_capacity = 3_MB;
  ObjectFs fs{sim, cfg};
  run(sim, [&]() -> Task<> {
    auto ok = co_await fs.write("fits.bin", 3_MB, Bin::mandatory);
    EXPECT_TRUE(ok.ok());
    auto full = co_await fs.write("nope.bin", 1_MB, Bin::mandatory);
    EXPECT_FALSE(full.ok());
    EXPECT_EQ(full.code(), Errc::no_capacity);
    EXPECT_FALSE(fs.contains("nope.bin"));
  });
}

TEST(ObjectFs, OverwriteReleasesOldSpaceFirst) {
  Simulation sim;
  ObjectFsConfig cfg;
  cfg.mandatory_capacity = 10_MB;
  ObjectFs fs{sim, cfg};
  run(sim, [&]() -> Task<> {
    (void)co_await fs.write("x.bin", 8_MB, Bin::mandatory);
    // 8 MB held; a 9 MB overwrite of the same file must succeed because the
    // old file's space returns to the pool first.
    auto ow = co_await fs.write("x.bin", 9_MB, Bin::mandatory);
    EXPECT_TRUE(ow.ok());
    EXPECT_EQ(fs.size_of("x.bin"), 9_MB);
    EXPECT_EQ(fs.mandatory_used(), 9_MB);
    EXPECT_EQ(fs.file_count(), 1u);
  });
}

TEST(ObjectFs, OverwriteCanMoveBetweenBins) {
  Simulation sim;
  ObjectFs fs{sim};
  run(sim, [&]() -> Task<> {
    (void)co_await fs.write("y.bin", 1_MB, Bin::mandatory);
    (void)co_await fs.write("y.bin", 1_MB, Bin::voluntary);
    EXPECT_EQ(fs.mandatory_used(), 0u);
    EXPECT_EQ(fs.voluntary_used(), 1_MB);
  });
}

TEST(ObjectFs, RemoveFreesSpace) {
  Simulation sim;
  ObjectFs fs{sim};
  run(sim, [&]() -> Task<> {
    (void)co_await fs.write("z.bin", 5_MB, Bin::voluntary);
    EXPECT_TRUE(fs.remove("z.bin").ok());
    EXPECT_EQ(fs.voluntary_used(), 0u);
    EXPECT_FALSE(fs.contains("z.bin"));
    EXPECT_FALSE(fs.remove("z.bin").ok());
  });
}

TEST(ObjectFs, TimingFollowsDiskModel) {
  Simulation sim;
  ObjectFsConfig cfg;
  cfg.write_rate = mib_per_sec(50.0);
  cfg.read_rate = mib_per_sec(100.0);
  cfg.seek = milliseconds(4);
  ObjectFs fs{sim, cfg};
  run(sim, [&]() -> Task<> {
    const auto t0 = sim.now();
    (void)co_await fs.write("t.bin", 50_MB, Bin::mandatory);
    const double write_s = to_seconds(sim.now() - t0);
    EXPECT_NEAR(write_s, 1.004, 0.01);  // 50 MB / 50 MiB/s + 4 ms seek

    const auto t1 = sim.now();
    (void)co_await fs.read("t.bin");
    const double read_s = to_seconds(sim.now() - t1);
    EXPECT_NEAR(read_s, 0.504, 0.01);
  });
}

TEST(ObjectFs, WatcherValuesFeedTheMonitor) {
  // Free-space queries are O(1) counters — they must be consistent after an
  // arbitrary op sequence (property check against a reference model).
  Simulation sim;
  ObjectFsConfig cfg;
  cfg.mandatory_capacity = 100_MB;
  cfg.voluntary_capacity = 100_MB;
  ObjectFs fs{sim, cfg};
  Rng rng{5};
  run(sim, [&]() -> Task<> {
    std::unordered_map<std::string, std::pair<Bytes, Bin>> ref;
    for (int i = 0; i < 200; ++i) {
      const std::string name = "f" + std::to_string(rng.below(30));
      if (rng.chance(0.7)) {
        const Bytes size = (1 + rng.below(5)) * 1_MB;
        const Bin bin = rng.chance(0.5) ? Bin::mandatory : Bin::voluntary;
        auto w = co_await fs.write(name, size, bin);
        if (w.ok()) ref[name] = {size, bin};
      } else {
        const bool existed = ref.erase(name) > 0;
        EXPECT_EQ(fs.remove(name).ok(), existed);
      }
    }
    Bytes want_m = 0, want_v = 0;
    for (const auto& [n, sv] : ref) {
      (sv.second == Bin::mandatory ? want_m : want_v) += sv.first;
    }
    EXPECT_EQ(fs.mandatory_used(), want_m);
    EXPECT_EQ(fs.voluntary_used(), want_v);
    EXPECT_EQ(fs.file_count(), ref.size());
  });
}

}  // namespace
}  // namespace c4h::vstore
