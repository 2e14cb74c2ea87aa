// Public-cloud substrate: S3 blob semantics, WAN transport behaviour
// (asymmetry, variability, the Fig-5 throughput shape), EC2 instances.
#include <gtest/gtest.h>

#include <memory>

#include "src/cloud/cloud.hpp"
#include "src/common/stats.hpp"
#include "src/sim/sync.hpp"

namespace c4h::cloud {
namespace {

using sim::Simulation;
using sim::Task;

// Home node → gateway → WAN → cloud endpoint.
struct Rig {
  Simulation sim{3};
  net::NetNodeId home, gw, cloud_ep;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<S3Store> s3;

  explicit Rig(net::TcpProfile t = s3_transport(), double wan_jitter = 0.0) {
    net::Topology topo;
    home = topo.add_node();
    gw = topo.add_node();
    cloud_ep = topo.add_node();
    topo.add_duplex(home, gw, mbps(95.5), microseconds(150));
    // Asymmetric WAN: upload thinner than download, both jittery.
    topo.add_link(gw, cloud_ep, mib_per_sec(1.0), milliseconds(25), 0.2, wan_jitter);
    topo.add_link(cloud_ep, gw, mib_per_sec(1.45), milliseconds(25), 0.2, wan_jitter);
    net = std::make_unique<net::Network>(sim, std::move(topo));
    s3 = std::make_unique<S3Store>(*net, cloud_ep, t);
  }

  template <typename Fn>
  void run(Fn&& body) {
    sim.spawn(body(*this));
    sim.run();
  }
};

TEST(S3, UrlFormat) {
  EXPECT_EQ(S3Store::url_for("photos", "img-1.jpg"), "s3://photos/img-1.jpg");
}

TEST(S3, PutThenGetReturnsSize) {
  Rig rig;
  rig.run([](Rig& r) -> Task<> {
    auto put = co_await r.s3->put(r.home, "s3://b/x", 5_MB);
    EXPECT_TRUE(put.ok());
    EXPECT_TRUE(r.s3->exists("s3://b/x"));
    auto got = co_await r.s3->get(r.home, "s3://b/x");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, 5_MB);
    }
  });
}

TEST(S3, GetMissingIsNotFoundAfterRoundTrip) {
  Rig rig;
  rig.run([](Rig& r) -> Task<> {
    const auto t0 = r.sim.now();
    auto got = co_await r.s3->get(r.home, "s3://b/missing");
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.code(), Errc::not_found);
    EXPECT_GT(r.sim.now() - t0, milliseconds(40));  // paid the WAN RTT
  });
}

TEST(S3, EraseRemovesObject) {
  Rig rig;
  rig.run([](Rig& r) -> Task<> {
    (void)co_await r.s3->put(r.home, "s3://b/x", 1_MB);
    auto er = co_await r.s3->erase(r.home, "s3://b/x");
    EXPECT_TRUE(er.ok());
    EXPECT_FALSE(r.s3->exists("s3://b/x"));
    auto again = co_await r.s3->erase(r.home, "s3://b/x");
    EXPECT_FALSE(again.ok());
  });
}

TEST(S3, StoredBytesAccumulate) {
  Rig rig;
  rig.run([](Rig& r) -> Task<> {
    (void)co_await r.s3->put(r.home, "s3://b/1", 1_MB);
    (void)co_await r.s3->put(r.home, "s3://b/2", 2_MB);
    EXPECT_EQ(r.s3->stored_bytes(), 3_MB);
    EXPECT_EQ(r.s3->object_count(), 2u);
  });
}

TEST(S3, UploadSlowerThanDownload) {
  Rig rig;
  rig.run([](Rig& r) -> Task<> {
    const auto t0 = r.sim.now();
    (void)co_await r.s3->put(r.home, "s3://b/x", 10_MB);
    const Duration up = r.sim.now() - t0;
    const auto t1 = r.sim.now();
    (void)co_await r.s3->get(r.home, "s3://b/x");
    const Duration down = r.sim.now() - t1;
    EXPECT_GT(to_seconds(up), to_seconds(down) * 1.2) << "upload should be slower";
  });
}

TEST(S3, RemoteLatencyFarExceedsLan) {
  // Fig 4's core claim: remote accesses are much slower and more variable
  // than LAN accesses for the same sizes.
  Rig rig{s3_transport(), /*wan_jitter=*/0.5};
  Accumulator remote;
  for (int i = 0; i < 12; ++i) {
    rig.run([i, &remote](Rig& r) -> Task<> {
      const auto t0 = r.sim.now();
      (void)co_await r.s3->put(r.home, "s3://b/o" + std::to_string(i), 5_MB);
      remote.add(to_seconds(r.sim.now() - t0));
    });
  }
  // 5 MB over ~1 MB/s WAN ≈ 5 s; LAN would take ~0.4 s.
  EXPECT_GT(remote.mean(), 2.0);
  EXPECT_GT(remote.stddev(), 0.2);  // visible variability
}

TEST(S3, ThroughputPeaksAtMidObjectSizes) {
  // The Fig-5 shape end-to-end through the event-driven engine: MB/s rises
  // from small to ~20 MB objects, then declines for super-large ones.
  auto tput_for = [](Bytes size) {
    Rig rig;  // no jitter: isolate the transport phases
    double out = 0;
    rig.run([size, &out](Rig& r) -> Task<> {
      const auto t0 = r.sim.now();
      (void)co_await r.s3->put(r.home, "s3://b/m", size);
      out = static_cast<double>(size) / to_seconds(r.sim.now() - t0);
    });
    return out;
  };
  const double small = tput_for(2_MB);
  const double mid = tput_for(20_MB);
  const double big = tput_for(100_MB);
  EXPECT_LT(small, mid);
  EXPECT_GT(mid, big);
}

TEST(S3, ConcurrentTransfersShareTheUplink) {
  Rig rig;
  std::vector<Duration> times(3);
  for (int i = 0; i < 3; ++i) {
    rig.sim.spawn([](Rig& r, int idx, Duration& out) -> Task<> {
      const auto t0 = r.sim.now();
      (void)co_await r.s3->put(r.home, "s3://b/c" + std::to_string(idx), 5_MB);
      out = r.sim.now() - t0;
    }(rig, i, times[static_cast<std::size_t>(i)]));
  }
  rig.sim.run();
  // Three 5 MB uploads over a 1 MiB/s uplink ≈ 15 s each when concurrent.
  for (const auto& t : times) EXPECT_GT(to_seconds(t), 12.0);
}

TEST(Ec2, ExtraLargeSpecMatchesPaper) {
  const auto s = Ec2Instance::extra_large_spec();
  EXPECT_EQ(s.cores, 5);
  EXPECT_NEAR(s.ghz, 2.9, 1e-9);
  EXPECT_EQ(s.memory, Bytes{14} * 1024 * 1024 * 1024);
}

TEST(Ec2, InstanceExecutesFasterThanAtom) {
  Simulation sim;
  net::Topology topo;
  const auto ep = topo.add_node();
  net::Network net{sim, std::move(topo)};
  (void)net;

  Ec2Instance ec2{sim, ep, Ec2Instance::extra_large_spec()};
  vmm::HostSpec atom;
  atom.name = "atom";
  atom.cores = 2;
  atom.ghz = 1.66;
  vmm::Host atom_host{sim, atom};
  auto& atom_vm = atom_host.create_guest("vm", 1, 512_MB);

  Duration ec2_time{}, atom_time{};
  sim.spawn([](Simulation& s, Ec2Instance& e, Duration& out) -> Task<> {
    const auto t0 = s.now();
    co_await e.host().execute(e.domain(), 100.0, 5);
    out = s.now() - t0;
  }(sim, ec2, ec2_time));
  sim.spawn([](Simulation& s, vmm::Host& h, vmm::Domain& d, Duration& out) -> Task<> {
    const auto t0 = s.now();
    co_await h.execute(d, 100.0, 1);
    out = s.now() - t0;
  }(sim, atom_host, atom_vm, atom_time));
  sim.run();
  EXPECT_LT(to_seconds(ec2_time) * 4, to_seconds(atom_time));
}

}  // namespace
}  // namespace c4h::cloud
