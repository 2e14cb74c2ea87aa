// Learned placement (§III-B future work): bandit semantics and an
// end-to-end scenario where learning beats the model-based decision engine
// because the model's inputs are stale.
#include <gtest/gtest.h>

#include "src/vstore/home_cloud.hpp"
#include "src/vstore/learner.hpp"

namespace c4h::vstore {
namespace {

using sim::Task;

ExecSite home_site(Key k) { return ExecSite{ExecSite::Kind::home_node, k}; }

TEST(Learner, ContextBucketsGroupSimilarSizes) {
  const auto svc = services::face_detect_profile();
  EXPECT_EQ(PlacementLearner::context_of(svc, 900_KB),
            PlacementLearner::context_of(svc, 1000_KB));
  EXPECT_NE(PlacementLearner::context_of(svc, 1_MB), PlacementLearner::context_of(svc, 4_MB));
  EXPECT_NE(PlacementLearner::context_of(svc, 1_MB),
            PlacementLearner::context_of(services::x264_profile(), 1_MB));
}

TEST(Learner, TriesEveryArmBeforeExploiting) {
  PlacementLearner l;
  const std::vector<ExecSite> cands{home_site(Key{1}), home_site(Key{2}),
                                    ExecSite{ExecSite::Kind::ec2, {}}};
  std::set<std::string> seen;
  for (int i = 0; i < 3; ++i) {
    const auto c = l.choose("ctx", cands);
    seen.insert(c.kind == ExecSite::Kind::ec2 ? "ec2" : c.node.to_string());
    l.observe("ctx", c, seconds(1));
  }
  EXPECT_EQ(seen.size(), 3u) << "all arms must be pulled during warm-up";
}

TEST(Learner, ConvergesToTheFastArm) {
  PlacementLearner::Config cfg;
  cfg.epsilon = 0.1;
  PlacementLearner l{cfg, 7};
  const ExecSite fast = home_site(Key{1});
  const ExecSite slow = home_site(Key{2});
  const std::vector<ExecSite> cands{slow, fast};

  int fast_picks = 0;
  for (int i = 0; i < 300; ++i) {
    const auto c = l.choose("ctx", cands);
    const bool is_fast = c == fast;
    fast_picks += is_fast;
    l.observe("ctx", c, is_fast ? seconds(1) : seconds(5));
  }
  // ~90% exploitation should go to the fast arm.
  EXPECT_GT(fast_picks, 240);
  EXPECT_LT(l.mean_seconds("ctx", fast), l.mean_seconds("ctx", slow));
}

TEST(Learner, ContextsAreIndependent) {
  PlacementLearner l{{}, 11};
  const ExecSite a = home_site(Key{1});
  const ExecSite b = home_site(Key{2});
  const std::vector<ExecSite> cands{a, b};
  // In ctx1 a is fast; in ctx2 b is fast.
  for (int i = 0; i < 100; ++i) {
    auto c1 = l.choose("ctx1", cands);
    l.observe("ctx1", c1, c1 == a ? seconds(1) : seconds(9));
    auto c2 = l.choose("ctx2", cands);
    l.observe("ctx2", c2, c2 == b ? seconds(1) : seconds(9));
  }
  EXPECT_LT(l.mean_seconds("ctx1", a), l.mean_seconds("ctx1", b));
  EXPECT_LT(l.mean_seconds("ctx2", b), l.mean_seconds("ctx2", a));
  EXPECT_EQ(l.contexts(), 2u);
}

// --- Statistics-grade properties (DESIGN.md §15) ----------------------------
//
// The bandit's guarantees are distributional, so these run the same
// experiment across many seeds and check the aggregate against binomial
// confidence bounds. Every bound below is ≥5 standard deviations wide at the
// stated trial counts: a legitimate implementation essentially never trips
// it, a regression in exploration or convergence essentially always does.

TEST(LearnerStats, ConvergesToTrulyBestArmAcrossSeeds) {
  // Three arms with large gaps (1s / 3s / 5s). After convergence an ε-greedy
  // learner picks the best arm with probability 1 - ε·(k-1)/k ≈ 0.933.
  const ExecSite fast = home_site(Key{1});
  const ExecSite mid = home_site(Key{2});
  const ExecSite slow = home_site(Key{3});
  const std::vector<ExecSite> cands{slow, mid, fast};
  auto reward = [&](const ExecSite& s) {
    return s == fast ? seconds(1) : (s == mid ? seconds(3) : seconds(5));
  };

  int total_tail_fast = 0;
  constexpr int kSeeds = 50;
  constexpr int kPulls = 500;
  constexpr int kTail = 200;  // converged window: the final kTail pulls
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PlacementLearner::Config cfg;
    cfg.epsilon = 0.1;
    PlacementLearner l{cfg, seed};
    int tail_fast = 0;
    for (int i = 0; i < kPulls; ++i) {
      const auto c = l.choose("ctx", cands);
      if (i >= kPulls - kTail && c == fast) ++tail_fast;
      l.observe("ctx", c, reward(c));
    }
    // Per-seed: convergence must hold for every seed, not just on average.
    EXPECT_GE(tail_fast, kTail * 8 / 10) << "seed " << seed;
    total_tail_fast += tail_fast;
  }
  // Aggregate over 50×200 = 10000 converged pulls: expected fast share
  // 0.933, binomial σ ≈ 0.0025 → [0.90, 0.97] is > 10σ wide.
  const double share = static_cast<double>(total_tail_fast) / (kSeeds * kTail);
  EXPECT_GT(share, 0.90);
  EXPECT_LT(share, 0.97);
}

TEST(LearnerStats, ExplorationRateMatchesEpsilon) {
  // With two well-separated arms, a converged ε-greedy learner picks the
  // worse arm only on exploration coin-flips that land there: rate ε/2.
  const ExecSite good = home_site(Key{1});
  const ExecSite bad = home_site(Key{2});
  const std::vector<ExecSite> cands{good, bad};

  constexpr double kEpsilon = 0.15;
  constexpr int kSeeds = 50;
  constexpr int kBurnIn = 50;
  constexpr int kMeasured = 400;
  int bad_picks = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PlacementLearner::Config cfg;
    cfg.epsilon = kEpsilon;
    PlacementLearner l{cfg, seed};
    for (int i = 0; i < kBurnIn + kMeasured; ++i) {
      const auto c = l.choose("ctx", cands);
      if (i >= kBurnIn && c == bad) ++bad_picks;
      l.observe("ctx", c, c == good ? seconds(1) : seconds(9));
    }
  }
  // 20000 measured pulls, expected bad-arm rate ε/2 = 0.075,
  // σ = sqrt(0.075·0.925/20000) ≈ 0.0019 → [0.065, 0.085] is ±5σ.
  const double rate = static_cast<double>(bad_picks) / (kSeeds * kMeasured);
  EXPECT_GT(rate, 0.065);
  EXPECT_LT(rate, 0.085);
}

TEST(LearnerStats, RecoversFromMidRunRewardShift) {
  // A starts fast and degrades; B starts slow and becomes fast. A pure
  // running mean never lets go of A (old samples dominate forever); the
  // min_gain recency floor bounds the stale reputation: A's tracked mean
  // crosses B's stale 5s within ~7 post-shift pulls of A.
  const ExecSite a = home_site(Key{1});
  const ExecSite b = home_site(Key{2});
  const std::vector<ExecSite> cands{a, b};

  constexpr int kSeeds = 50;
  constexpr int kPreShift = 200;
  constexpr int kPostShift = 300;
  constexpr int kTail = 100;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PlacementLearner::Config cfg;
    cfg.epsilon = 0.1;
    PlacementLearner l{cfg, seed};
    int tail_b = 0;
    for (int i = 0; i < kPreShift + kPostShift; ++i) {
      const bool shifted = i >= kPreShift;
      const auto c = l.choose("ctx", cands);
      Duration took;
      if (c == a) {
        took = shifted ? seconds(9) : seconds(1);
      } else {
        took = shifted ? seconds(1) : seconds(5);
      }
      if (i >= kPreShift + kPostShift - kTail && c == b) ++tail_b;
      l.observe("ctx", c, took);
    }
    EXPECT_GE(tail_b, kTail * 7 / 10) << "seed " << seed;
    EXPECT_LT(l.mean_seconds("ctx", b), l.mean_seconds("ctx", a)) << "seed " << seed;
  }
}

TEST(LearnerStats, ReferenceSeedIsPinned) {
  // One reference seed, fully pinned: the exact pull counts and near-exact
  // means. Any change to the Rng stream, the arm-selection order, or the
  // update rule moves these values — bump them only with a changelog entry
  // explaining why the learner's behavior was *meant* to change.
  const ExecSite fast = home_site(Key{1});
  const ExecSite slow = home_site(Key{2});
  const std::vector<ExecSite> cands{fast, slow};
  PlacementLearner::Config cfg;
  cfg.epsilon = 0.1;
  PlacementLearner l{cfg, 1234};
  for (int i = 0; i < 100; ++i) {
    const auto c = l.choose("ctx", cands);
    l.observe("ctx", c, c == fast ? seconds(1) : seconds(5));
  }
  EXPECT_EQ(l.pulls("ctx", fast) + l.pulls("ctx", slow), 100u);
  EXPECT_EQ(l.pulls("ctx", fast), 94u);
  EXPECT_EQ(l.pulls("ctx", slow), 6u);
  EXPECT_NEAR(l.mean_seconds("ctx", fast), 1.0, 1e-9);
  EXPECT_NEAR(l.mean_seconds("ctx", slow), 5.0, 1e-9);
}

TEST(LearnerStats, ZeroMinGainRestoresRunningMean) {
  // With the floor off, observe() is the textbook incremental mean.
  PlacementLearner::Config cfg;
  cfg.min_gain = 0.0;
  PlacementLearner l{cfg, 5};
  const ExecSite s = home_site(Key{1});
  l.observe("ctx", s, seconds(2));
  l.observe("ctx", s, seconds(4));
  l.observe("ctx", s, seconds(9));
  EXPECT_NEAR(l.mean_seconds("ctx", s), 5.0, 1e-9);
  EXPECT_EQ(l.pulls("ctx", s), 3u);
}

TEST(LearnerEndToEnd, OutlearnsStaleResourceRecords) {
  // The desktop is secretly saturated by a non-VStore workload and the
  // monitors are off, so resource records are stale-idle: the decision
  // engine keeps picking the (loaded) desktop. The bandit only sees
  // realized times and learns to run on the idle netbook instead.
  HomeCloudConfig cfg;
  cfg.netbooks = 2;
  cfg.start_monitors = false;  // records stay as published at bootstrap
  HomeCloud hc{cfg};
  hc.bootstrap();

  auto x264 = services::x264_profile();
  hc.registry().add_profile(x264);
  hc.node(1).deploy_service(x264);
  hc.desktop().deploy_service(x264);

  double engine_total = 0, learner_total = 0;
  int learner_on_netbook = 0;
  hc.run([&](HomeCloud& h) -> Task<> {
    (void)co_await h.node(1).publish_services();
    (void)co_await h.desktop().publish_services();

    // Saturate the desktop invisibly (monitors off → records say idle).
    // Many competing jobs shrink any newcomer's fair share to a sliver, so
    // the desktop is genuinely the worse choice despite its bigger cores.
    for (int j = 0; j < 15; ++j) {
      h.sim().spawn([](HomeCloud& hh) -> Task<> {
        co_await hh.desktop().host().execute(hh.desktop().app_domain(), 1e9, 4);
      }(h));
    }
    co_await h.sim().delay(milliseconds(100));

    for (int i = 0; i < 8; ++i) {
      const std::string name = "v" + std::to_string(i) + ".avi";
      ObjectMeta m;
      m.name = name;
      m.type = "avi";
      m.size = 4_MB;
      (void)co_await h.node(0).create_object(m);
      (void)co_await h.node(0).store_object(name);
    }

    // Model-based decisions (stale records → loaded desktop every time).
    for (int i = 0; i < 4; ++i) {
      const auto t0 = h.sim().now();
      auto res = co_await h.node(0).process("v" + std::to_string(i) + ".avi", x264);
      if (res.ok()) engine_total += to_seconds(h.sim().now() - t0);
    }

    // Bandit over the same two sites.
    PlacementLearner learner;
    const std::vector<ExecSite> cands{home_site(h.node(1).chimera().id()),
                                      home_site(h.desktop().chimera().id())};
    const std::string ctx = PlacementLearner::context_of(x264, 4_MB);
    for (int i = 4; i < 8; ++i) {
      const auto site = learner.choose(ctx, cands);
      const auto t0 = h.sim().now();
      auto res = co_await h.node(0).process("v" + std::to_string(i) + ".avi", x264,
                                            DecisionPolicy::performance, site);
      if (!res.ok()) continue;
      const auto took = h.sim().now() - t0;
      learner.observe(ctx, site, took);
      learner_total += to_seconds(took);
      learner_on_netbook += (site == cands[0]);
    }
  }(hc));

  // After its warm-up pulls, the learner settles on the idle netbook; the
  // engine burns every run on the saturated desktop.
  EXPECT_GE(learner_on_netbook, 3);
  EXPECT_LT(learner_total, engine_total * 0.75);
}

}  // namespace
}  // namespace c4h::vstore
