// Adaptation to changing network conditions (§VII future work (iv)):
// dynamic link capacity, the WAN throughput estimator, and the placement
// engine's cloud-store veto reacting to a brown-out.
#include <gtest/gtest.h>

#include "src/vstore/adaptive.hpp"
#include "src/vstore/home_cloud.hpp"
#include "src/vstore/placement_engine.hpp"

namespace c4h::vstore {
namespace {

using sim::Task;

// --- Dynamic link capacity in the flow engine ---

TEST(DynamicCapacity, InFlightFlowSlowsWhenLinkDegrades) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node();
  const auto b = topo.add_node();
  const auto [fwd, rev] = topo.add_duplex(a, b, 10.0 * 1000 * 1000, microseconds(100));
  (void)rev;
  net::Network net{sim, std::move(topo)};
  net.set_hop_processing(Duration::zero());

  Duration took{};
  sim.spawn([](sim::Simulation& s, net::Network& n, net::NetNodeId src, net::NetNodeId dst,
               Duration& out) -> Task<> {
    const auto t0 = s.now();
    co_await n.transfer(src, dst, 10 * 1000 * 1000, {});
    out = s.now() - t0;
  }(sim, net, a, b, took));

  // Halve the capacity after 0.5 s (5 MB already moved).
  sim.schedule(milliseconds(500), [&net, fwd = fwd] { net.set_link_capacity(fwd, 5.0 * 1000 * 1000); });
  sim.run();
  // 0.5 s at 10 MB/s + remaining 5 MB at 5 MB/s = 1.5 s.
  EXPECT_NEAR(to_seconds(took), 1.5, 0.02);
}

TEST(DynamicCapacity, FlowSpeedsUpWhenLinkRecovers) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node();
  const auto b = topo.add_node();
  const auto [fwd, rev] = topo.add_duplex(a, b, 5.0 * 1000 * 1000, microseconds(100));
  (void)rev;
  net::Network net{sim, std::move(topo)};
  net.set_hop_processing(Duration::zero());

  Duration took{};
  sim.spawn([](sim::Simulation& s, net::Network& n, net::NetNodeId src, net::NetNodeId dst,
               Duration& out) -> Task<> {
    const auto t0 = s.now();
    co_await n.transfer(src, dst, 10 * 1000 * 1000, {});
    out = s.now() - t0;
  }(sim, net, a, b, took));
  sim.schedule(seconds(1), [&net, fwd = fwd] { net.set_link_capacity(fwd, 10.0 * 1000 * 1000); });
  sim.run();
  // 1 s at 5 MB/s + 5 MB at 10 MB/s = 1.5 s.
  EXPECT_NEAR(to_seconds(took), 1.5, 0.02);
}

// --- WAN estimator ---

TEST(WanEstimator, ConvergesToObservedRate) {
  WanEstimator est{0.3, mib_per_sec(1.0), mib_per_sec(1.45)};
  for (int i = 0; i < 30; ++i) {
    est.observe_upload(2_MB, from_seconds(to_mib(2_MB) / 0.25));  // 0.25 MiB/s observed
  }
  EXPECT_NEAR(to_mib_per_sec(est.upload_estimate()), 0.25, 0.02);
  // Uploads-only traffic must not inflate the download stream's count: the
  // two directions track independent EWMAs AND independent sample counts.
  EXPECT_EQ(est.upload_observations(), 30u);
  EXPECT_EQ(est.download_observations(), 0u);
  EXPECT_EQ(est.observations(), 30u);
  // Download estimate untouched.
  EXPECT_NEAR(to_mib_per_sec(est.download_estimate()), 1.45, 1e-9);
}

TEST(WanEstimator, CountsDirectionsIndependently) {
  WanEstimator est;
  est.observe_upload(1_MB, seconds(1));
  est.observe_download(1_MB, seconds(1));
  est.observe_download(2_MB, seconds(1));
  EXPECT_EQ(est.upload_observations(), 1u);
  EXPECT_EQ(est.download_observations(), 2u);
  EXPECT_EQ(est.observations(), 3u);
}

TEST(WanEstimator, IgnoresDegenerateSamples) {
  WanEstimator est;
  const Rate up_before = est.upload_estimate();
  const Rate down_before = est.download_estimate();
  // Zero-byte and zero-duration transfers carry no rate information; both
  // directions must drop them from estimate AND count.
  est.observe_upload(0, seconds(1));
  est.observe_upload(1_MB, Duration::zero());
  est.observe_download(0, seconds(1));
  est.observe_download(1_MB, Duration::zero());
  EXPECT_EQ(est.upload_estimate(), up_before);
  EXPECT_EQ(est.download_estimate(), down_before);
  EXPECT_EQ(est.upload_observations(), 0u);
  EXPECT_EQ(est.download_observations(), 0u);
  EXPECT_EQ(est.observations(), 0u);
}

TEST(AdaptivePolicy, ThresholdTracksEstimate) {
  WanEstimator est{0.5, mib_per_sec(1.0), mib_per_sec(1.45)};
  PlacementEngine eng{PlacementEngineConfig{}, est};  // 20 s upload budget
  const Bytes before = eng.cloud_threshold();
  EXPECT_NEAR(to_mib(before), 20.0, 0.5);  // 1 MiB/s × 20 s

  // Uplink collapses to ~0.1 MiB/s.
  for (int i = 0; i < 20; ++i) {
    est.observe_upload(1_MB, from_seconds(10.0));
  }
  EXPECT_LT(eng.cloud_threshold(), before / 5);

  EXPECT_TRUE(eng.veto_cloud_store(10_MB)) << "a big object must stay home";
  EXPECT_FALSE(eng.veto_cloud_store(512_KB)) << "a tiny one still goes to the cloud";
}

// --- End-to-end: brown-out makes learned stores keep data home ---

TEST(AdaptiveEndToEnd, BrownOutRedirectsStoresHome) {
  HomeCloudConfig cfg;
  cfg.netbooks = 3;
  cfg.start_monitors = false;
  cfg.wan_rate_jitter = 0.0;  // deterministic conditions
  cfg.wan_latency_jitter = 0.0;
  HomeCloud hc{cfg};
  hc.bootstrap();

  int went_cloud_before = 0, went_cloud_after = 0;
  bool last_went_cloud = true;
  hc.run([&](HomeCloud& h) -> Task<> {
    // Every store asks for the remote cloud; under DecisionPolicy::learned
    // the placement engine vetoes uploads that would blow its 20 s budget.
    auto store_with_adaptive = [&](const std::string& name) -> Task<bool> {
      ObjectMeta m;
      m.name = name;
      m.type = "avi";
      m.size = 8_MB;
      (void)co_await h.node(0).create_object(m);
      StoreOptions opts;
      opts.policy.fallback = StoreTarget::remote_cloud;
      opts.decision = DecisionPolicy::learned;
      auto s = co_await h.node(0).store_object(name, opts);
      co_return s.ok() && s->location.is_cloud();
    };

    // Healthy WAN: 8 MB uploads fit the 20 s budget at ~1 MiB/s.
    for (int i = 0; i < 3; ++i) {
      went_cloud_before += co_await store_with_adaptive("pre/" + std::to_string(i));
    }

    // Brown-out: the uplink collapses to 0.1 MiB/s. The EWMA needs a few
    // painful uploads to learn the new rate (that inertia is the point: one
    // slow transfer shouldn't flip the policy), after which 8 MB objects
    // stay home.
    h.set_wan_rates(mib_per_sec(0.1), mib_per_sec(0.2));
    for (int i = 0; i < 8; ++i) {
      const bool cloud = co_await store_with_adaptive("post/" + std::to_string(i));
      went_cloud_after += cloud;
      last_went_cloud = cloud;
    }
  }(hc));

  EXPECT_EQ(went_cloud_before, 3) << "healthy WAN should accept 8 MB uploads";
  EXPECT_LE(went_cloud_after, 5) << "the estimator must converge within a few lessons";
  EXPECT_FALSE(last_went_cloud) << "once converged, stores must stay home";
  EXPECT_LT(to_mib_per_sec(hc.wan_estimator().upload_estimate()), 0.5)
      << "estimate must approach the degraded rate";
  EXPECT_GT(hc.wan_estimator().observations(), 0u);
  EXPECT_EQ(hc.placement_engine().store_vetoes(), static_cast<std::uint64_t>(8 - went_cloud_after))
      << "every post-brown-out store that stayed home was a veto";
}

}  // namespace
}  // namespace c4h::vstore
