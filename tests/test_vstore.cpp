// VStore++ operations: create/store/fetch/process/fetch+process, storage
// policies, bin spill, command codec, decision policies.
#include <gtest/gtest.h>

#include "src/vstore/command.hpp"
#include "src/vstore/home_cloud.hpp"
#include "src/vstore/policy.hpp"

namespace c4h::vstore {
namespace {

using sim::Task;

ObjectMeta make_meta(const std::string& name, Bytes size, const std::string& type = "jpg",
                     std::vector<std::string> tags = {}) {
  ObjectMeta m;
  m.name = name;
  m.type = type;
  m.size = size;
  m.tags = std::move(tags);
  return m;
}

// --- Command codec ---

TEST(Command, RoundTrip) {
  CommandPacket p;
  p.type = CommandType::store_object;
  p.service_id = 7;
  p.domain_id = 3;
  p.shm_ref = 0xDEADBEEF;
  p.data = "camera/img-001.jpg";
  auto back = CommandPacket::deserialize(p.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, CommandType::store_object);
  EXPECT_EQ(back->service_id, 7u);
  EXPECT_EQ(back->domain_id, 3u);
  EXPECT_EQ(back->shm_ref, 0xDEADBEEFu);
  EXPECT_EQ(back->data, "camera/img-001.jpg");
}

TEST(Command, TypicalPacketIsUnder50Bytes) {
  CommandPacket p;
  p.type = CommandType::fetch_object;
  p.data = "obj-12345.jpg";
  EXPECT_LT(p.serialize().size(), 50u);
}

TEST(Command, WireBytesArePinned) {
  // Little-endian length header (23), then type, service id, domain id, shm
  // ref and the length-prefixed data.
  CommandPacket p;
  p.type = CommandType::store_object;
  p.service_id = 7;
  p.domain_id = 3;
  p.shm_ref = 0xDEADBEEF;
  p.data = "ab";
  const Buffer expected{23, 0, 0, 0, 2, 7, 0, 0, 0, 3, 0, 0, 0, 0xEF, 0xBE, 0xAD,
                        0xDE, 0, 0, 0, 0, 2, 0, 0, 0, 'a', 'b'};
  EXPECT_EQ(p.serialize(), expected);
}

TEST(Command, LengthHeaderMismatchRejected) {
  CommandPacket p;
  p.data = "x";
  auto wire = p.serialize();
  wire.push_back(0xFF);  // trailing garbage breaks the length header
  EXPECT_FALSE(CommandPacket::deserialize(wire).ok());
}

// --- Storage policies (pure) ---

TEST(StoragePolicy, PrivacyKeepsMp3Local) {
  const auto p = StoragePolicy::privacy();
  EXPECT_EQ(p.target_for(make_meta("a.mp3", 5_MB, "mp3")), StoreTarget::local);
  EXPECT_EQ(p.target_for(make_meta("a.avi", 5_MB, "avi")), StoreTarget::remote_cloud);
  EXPECT_EQ(p.target_for(make_meta("b.avi", 5_MB, "avi", {"private"})), StoreTarget::local);
}

TEST(StoragePolicy, SizeThresholdSplits) {
  const auto p = StoragePolicy::size_threshold(10_MB);
  EXPECT_EQ(p.target_for(make_meta("s", 5_MB)), StoreTarget::local);
  EXPECT_EQ(p.target_for(make_meta("l", 50_MB)), StoreTarget::remote_cloud);
}

TEST(ChooseCandidate, PerformancePicksLowestTotalTime) {
  std::vector<CandidateInfo> c(2);
  c[0].move_in = milliseconds(100);
  c[0].exec_estimate = seconds(5);
  c[1].move_in = seconds(1);
  c[1].exec_estimate = seconds(1);
  EXPECT_EQ(choose_candidate(DecisionPolicy::performance, c), 1u);
}

TEST(ChooseCandidate, BalancedPrefersIdleNode) {
  std::vector<CandidateInfo> c(2);
  c[0].exec_estimate = seconds(1);
  c[0].cpu_load = 0.9;
  c[1].exec_estimate = seconds(2);
  c[1].cpu_load = 0.1;
  EXPECT_EQ(choose_candidate(DecisionPolicy::balanced_utilization, c), 1u);
  EXPECT_EQ(choose_candidate(DecisionPolicy::performance, c), 0u);
}

TEST(ChooseCandidate, BatteryAwareSparesDrainedNetbook) {
  std::vector<CandidateInfo> c(2);
  c[0].exec_estimate = seconds(1);
  c[0].battery_powered = true;
  c[0].battery = 0.1;  // nearly dead netbook, fast
  c[1].exec_estimate = seconds(3);
  c[1].battery_powered = false;  // mains desktop, slower
  EXPECT_EQ(choose_candidate(DecisionPolicy::battery_aware, c), 1u);
  EXPECT_EQ(choose_candidate(DecisionPolicy::performance, c), 0u);
}

// --- End-to-end VStore++ operations ---

struct Cloud : HomeCloud {
  Cloud() : HomeCloud(make_cfg()) { bootstrap(); }
  explicit Cloud(HomeCloudConfig cfg) : HomeCloud(std::move(cfg)) { bootstrap(); }
  static HomeCloudConfig make_cfg() {
    HomeCloudConfig cfg;
    cfg.netbooks = 3;  // smaller rig for unit tests
    return cfg;
  }
};

TEST(VStore, CreateObjectIsOneCommandRoundTrip) {
  // A command round trip costs 300 µs of handling plus 40 ns per wire byte
  // of the command packet, and create_object is nothing else.
  const Duration round_trip =
      microseconds(300) + nanoseconds(static_cast<std::int64_t>(CommandPacket{}.serialize().size()) * 40);
  EXPECT_EQ(round_trip, microseconds(301));  // a 25-byte packet
  Cloud hc;
  hc.tracer().set_enabled(true);
  Duration took{};
  hc.run([](HomeCloud& h, Duration& out) -> Task<> {
    const TimePoint t0 = h.sim().now();
    auto created = co_await h.node(0).create_object(make_meta("cmd.jpg", 1_MB));
    EXPECT_TRUE(created.ok());
    out = h.sim().now() - t0;
  }(hc, took));
  EXPECT_EQ(took, round_trip);
  const obs::Span* create = hc.tracer().find_by_name("vstore.create");
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->duration(), round_trip);
  const auto children = hc.tracer().children(create->id);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name, "vstore.command");
  EXPECT_TRUE(children[0]->finished);
  EXPECT_EQ(children[0]->duration(), round_trip);
}

TEST(VStore, StoreWithoutCreateFails) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    auto r = co_await h.node(0).store_object("ghost");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::not_found);
  }(hc));
}

TEST(VStore, StoreThenLocalFetch) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    auto& n = h.node(0);
    (void)co_await n.create_object(make_meta("img.jpg", 2_MB));
    auto stored = co_await n.store_object("img.jpg");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->location.kind, ObjectLocation::Kind::home_node);
    EXPECT_EQ(stored->location.node, n.chimera().id());
    EXPECT_GT(stored->inter_domain, Duration::zero());
    EXPECT_GT(stored->metadata, Duration::zero());

    auto fetched = co_await n.fetch_object("img.jpg");
    EXPECT_TRUE(fetched.ok());
    if (!fetched.ok()) co_return;
    EXPECT_TRUE(fetched->local);
    EXPECT_EQ(fetched->size, 2_MB);
  }(hc));
}

TEST(VStore, FetchFromAnotherNode) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    (void)co_await h.node(0).create_object(make_meta("shared.avi", 8_MB, "avi"));
    (void)co_await h.node(0).store_object("shared.avi");
    auto fetched = co_await h.node(2).fetch_object("shared.avi");
    EXPECT_TRUE(fetched.ok());
    if (!fetched.ok()) co_return;
    EXPECT_FALSE(fetched->local);
    EXPECT_FALSE(fetched->from_cloud);
    EXPECT_GT(fetched->inter_node, fetched->inter_domain) << "LAN cost should dominate";
    EXPECT_GT(fetched->dht_lookup, Duration::zero());
  }(hc));
}

TEST(VStore, FetchMissingObjectFails) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    auto fetched = co_await h.node(1).fetch_object("never-stored");
    EXPECT_FALSE(fetched.ok());
    EXPECT_EQ(fetched.code(), Errc::not_found);
  }(hc));
}

TEST(VStore, RemoteCloudPolicySendsToS3) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    auto& n = h.node(0);
    (void)co_await n.create_object(make_meta("video.avi", 5_MB, "avi"));
    StoreOptions opts;
    opts.policy = StoragePolicy::privacy();  // avi is shareable → cloud
    auto stored = co_await n.store_object("video.avi", opts);
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->location.kind, ObjectLocation::Kind::remote_cloud);
    EXPECT_TRUE(h.s3().exists(stored->location.url));

    auto fetched = co_await h.node(1).fetch_object("video.avi");
    EXPECT_TRUE(fetched.ok());
    if (!fetched.ok()) co_return;
    EXPECT_TRUE(fetched->from_cloud);
  }(hc));
}

TEST(VStore, PrivateMp3StaysHomeUnderPrivacyPolicy) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    auto& n = h.node(0);
    (void)co_await n.create_object(make_meta("song.mp3", 5_MB, "mp3"));
    StoreOptions opts;
    opts.policy = StoragePolicy::privacy();
    auto stored = co_await n.store_object("song.mp3", opts);
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->location.kind, ObjectLocation::Kind::home_node);
    EXPECT_EQ(h.s3().object_count(), 0u);
  }(hc));
}

TEST(VStore, MandatoryBinFullSpillsToVoluntaryElsewhere) {
  HomeCloudConfig cfg;
  cfg.netbooks = 3;
  Cloud hc{cfg};
  hc.run([](HomeCloud& h) -> Task<> {
    auto& n = h.node(0);
    // Fill node 0's mandatory bin (4 GB default) almost completely.
    const Bytes filler = n.fs().mandatory_free() - 1_MB;
    (void)co_await n.create_object(make_meta("filler.bin", filler, "iso"));
    auto f = co_await n.store_object("filler.bin");
    EXPECT_TRUE(f.ok());

    (void)co_await n.create_object(make_meta("overflow.jpg", 100_MB));
    auto stored = co_await n.store_object("overflow.jpg");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->location.kind, ObjectLocation::Kind::home_node);
    EXPECT_NE(stored->location.node, n.chimera().id()) << "should spill to another node";
    EXPECT_GT(stored->decision, Duration::zero()) << "spill requires a placement decision";

    // And it comes back.
    auto fetched = co_await n.fetch_object("overflow.jpg");
    EXPECT_TRUE(fetched.ok());
  }(hc));
}

TEST(VStore, NonBlockingStoreReturnsImmediately) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    auto& n = h.node(0);
    (void)co_await n.create_object(make_meta("nb.jpg", 20_MB));
    StoreOptions opts;
    opts.blocking = false;
    const auto t0 = h.sim().now();
    auto stored = co_await n.store_object("nb.jpg", opts);
    const Duration nb_latency = h.sim().now() - t0;
    EXPECT_TRUE(stored.ok());
    // Wait for the async tail, then the object must be fetchable.
    co_await h.sim().delay(seconds(30));
    auto fetched = co_await n.fetch_object("nb.jpg");
    EXPECT_TRUE(fetched.ok());

    // Blocking store of the same size must cost at least as much.
    (void)co_await n.create_object(make_meta("b.jpg", 20_MB));
    const auto t1 = h.sim().now();
    (void)co_await n.store_object("b.jpg");
    const Duration b_latency = h.sim().now() - t1;
    EXPECT_LT(to_seconds(nb_latency), to_seconds(b_latency));
  }(hc));
}

TEST(VStore, ProcessRunsWhereDeployed) {
  Cloud hc;
  auto fdet = services::face_detect_profile();
  hc.registry().add_profile(fdet);
  hc.node(1).deploy_service(fdet);
  hc.run([](HomeCloud& h) -> Task<> {
    const auto fd = *h.registry().profile("face-detect", 1);
    (void)co_await h.node(1).publish_services();

    (void)co_await h.node(0).create_object(make_meta("cam.jpg", 1_MB));
    (void)co_await h.node(0).store_object("cam.jpg");

    auto res = co_await h.node(0).process("cam.jpg", fd);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    EXPECT_EQ(res->site.kind, ExecSite::Kind::home_node);
    EXPECT_EQ(res->site.node, h.node(1).chimera().id());
    EXPECT_GT(res->exec, Duration::zero());
    EXPECT_GT(res->decision, Duration::zero());
  }(hc));
}

TEST(VStore, ProcessFailsWhenServiceNowhere) {
  Cloud hc;
  hc.run([](HomeCloud& h) -> Task<> {
    (void)co_await h.node(0).create_object(make_meta("o.jpg", 1_MB));
    (void)co_await h.node(0).store_object("o.jpg");
    auto res = co_await h.node(0).process("o.jpg", services::face_detect_profile());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.code(), Errc::unavailable);
  }(hc));
}

TEST(VStore, FetchProcessPrefersCapableRequester) {
  Cloud hc;
  auto fdet = services::face_detect_profile();
  hc.registry().add_profile(fdet);
  hc.node(0).deploy_service(fdet);
  hc.node(2).deploy_service(fdet);
  hc.run([](HomeCloud& h) -> Task<> {
    const auto fd = *h.registry().profile("face-detect", 1);
    (void)co_await h.node(0).publish_services();
    (void)co_await h.node(2).publish_services();

    (void)co_await h.node(2).create_object(make_meta("img.jpg", 1_MB));
    (void)co_await h.node(2).store_object("img.jpg");

    auto res = co_await h.node(0).fetch_process("img.jpg", fd);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    EXPECT_EQ(res->site.kind, ExecSite::Kind::home_node);
    EXPECT_EQ(res->site.node, h.node(0).chimera().id()) << "requester is capable, runs locally";
  }(hc));
}

TEST(VStore, ProcessOnEc2WhenCloudIsBest) {
  Cloud hc;
  auto frec = services::face_recognize_profile(60_MB);
  hc.registry().add_profile(frec);
  hc.deploy_service_in_cloud(frec);  // only the cloud offers it
  hc.run([](HomeCloud& h) -> Task<> {
    const auto fr = *h.registry().profile("face-recognize", 2);
    (void)co_await h.node(0).create_object(make_meta("face.jpg", 1_MB));
    (void)co_await h.node(0).store_object("face.jpg");
    auto res = co_await h.node(0).process("face.jpg", fr);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    EXPECT_EQ(res->site.kind, ExecSite::Kind::ec2);
    EXPECT_GT(res->move, Duration::zero()) << "argument must cross the WAN";
  }(hc));
}

TEST(VStore, DecisionAccountsForMovementCosts) {
  // With the service on a remote node and on the owner, performance policy
  // must pick the owner for a large object (no movement) when machines are
  // comparable.
  HomeCloudConfig cfg;
  cfg.netbooks = 3;
  cfg.with_desktop = false;  // all-equal netbooks
  Cloud hc{cfg};
  auto x264 = services::x264_profile();
  hc.registry().add_profile(x264);
  hc.node(1).deploy_service(x264);
  hc.node(2).deploy_service(x264);
  hc.run([](HomeCloud& h) -> Task<> {
    const auto xp = *h.registry().profile("x264-transcode", 3);
    (void)co_await h.node(1).publish_services();
    (void)co_await h.node(2).publish_services();

    // Object lives on node 1 (stored from node 1, local-first).
    (void)co_await h.node(1).create_object(make_meta("film.avi", 50_MB, "avi"));
    (void)co_await h.node(1).store_object("film.avi");

    auto res = co_await h.node(0).process("film.avi", xp);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    EXPECT_EQ(res->site.node, h.node(1).chimera().id())
        << "decision should avoid moving 50 MB between equal machines";
  }(hc));
}

TEST(VStore, ServicesSurviveOwnerReadingObject) {
  // process() at the owner must read the file from the owner's disk and not
  // lose it (regression guard for bookkeeping).
  Cloud hc;
  auto fdet = services::face_detect_profile();
  hc.registry().add_profile(fdet);
  hc.node(0).deploy_service(fdet);
  hc.run([](HomeCloud& h) -> Task<> {
    const auto fd = *h.registry().profile("face-detect", 1);
    (void)co_await h.node(0).publish_services();
    (void)co_await h.node(0).create_object(make_meta("a.jpg", 1_MB));
    (void)co_await h.node(0).store_object("a.jpg");
    for (int i = 0; i < 3; ++i) {
      auto res = co_await h.node(0).process("a.jpg", fd);
      EXPECT_TRUE(res.ok()) << "iteration " << i;
    }
    EXPECT_TRUE(h.node(0).fs().contains("a.jpg"));
  }(hc));
}

}  // namespace
}  // namespace c4h::vstore
