// Learned placement (§III-B future work): the bandit semantics of the one
// learner production runs, PlacementEngine at its default configuration,
// and an end-to-end scenario where DecisionPolicy::learned beats the
// model-based decision engine because the model's inputs are stale.
#include <gtest/gtest.h>

#include <set>

#include "src/vstore/home_cloud.hpp"
#include "src/vstore/placement_engine.hpp"

namespace c4h::vstore {
namespace {

using sim::Task;

ExecSite home_site(Key k) { return ExecSite{ExecSite::Kind::home_node, k}; }

// Every arm carries the same cost-model prior, so only observations can
// separate them.
CandidateInfo arm(ExecSite site) {
  CandidateInfo c;
  c.site = site;
  c.exec_estimate = seconds(1);
  return c;
}

std::vector<CandidateInfo> arms(const std::vector<ExecSite>& sites) {
  std::vector<CandidateInfo> out;
  for (const ExecSite& s : sites) out.push_back(arm(s));
  return out;
}

PlacementEngineConfig seeded(std::uint64_t seed) {
  PlacementEngineConfig cfg;  // ε = 0.05, prior weight 3, 10 s dwell, 15% margin
  cfg.seed = seed;
  return cfg;
}

// The engine driven as a plain bandit: each decision lands two dwell
// periods after the previous one, so hysteresis holds an incumbent only on
// the improvement margin, never on tenure.
struct Bandit {
  explicit Bandit(PlacementEngineConfig cfg) : eng{cfg, wan} {}

  ExecSite choose(const std::string& ctx, const std::vector<CandidateInfo>& cands) {
    ++decisions;
    return eng.choose(ctx, cands, TimePoint{2 * eng.config().min_dwell * decisions});
  }

  WanEstimator wan;
  PlacementEngine eng;
  int decisions = 0;
};

TEST(Learner, ContextBucketsGroupSimilarSizes) {
  const auto svc = services::face_detect_profile();
  EXPECT_EQ(PlacementEngine::context_of(svc, 900_KB), PlacementEngine::context_of(svc, 1000_KB));
  EXPECT_NE(PlacementEngine::context_of(svc, 1_MB), PlacementEngine::context_of(svc, 4_MB));
  EXPECT_NE(PlacementEngine::context_of(svc, 1_MB),
            PlacementEngine::context_of(services::x264_profile(), 1_MB));
}

TEST(Learner, TriesEveryArmBeforeExploiting) {
  Bandit b{PlacementEngineConfig{}};
  const auto cands =
      arms({home_site(Key{1}), home_site(Key{2}), ExecSite{ExecSite::Kind::ec2, {}}});
  std::set<std::string> seen;
  for (int i = 0; i < 3; ++i) {
    const auto c = b.choose("ctx", cands);
    seen.insert(c.kind == ExecSite::Kind::ec2 ? "ec2" : c.node.to_string());
    b.eng.observe("ctx", c, seconds(1));
  }
  EXPECT_EQ(seen.size(), 3u) << "all arms must be pulled during warm-up";
}

TEST(Learner, ConvergesToTheFastArm) {
  Bandit b{seeded(7)};
  const ExecSite fast = home_site(Key{1});
  const ExecSite slow = home_site(Key{2});
  const auto cands = arms({slow, fast});

  int fast_picks = 0;
  for (int i = 0; i < 300; ++i) {
    const auto c = b.choose("ctx", cands);
    const bool is_fast = c == fast;
    fast_picks += is_fast;
    b.eng.observe("ctx", c, is_fast ? seconds(1) : seconds(5));
  }
  // After warm-up, all but ε/2 ≈ 2.5% of the picks go to the fast arm.
  EXPECT_GT(fast_picks, 240);
  EXPECT_LT(b.eng.mean_seconds("ctx", fast), b.eng.mean_seconds("ctx", slow));
}

TEST(Learner, ContextsAreIndependent) {
  Bandit b{seeded(11)};
  const ExecSite a = home_site(Key{1});
  const ExecSite c = home_site(Key{2});
  const auto cands = arms({a, c});
  // In ctx1 a is fast; in ctx2 c is fast.
  for (int i = 0; i < 100; ++i) {
    const auto c1 = b.choose("ctx1", cands);
    b.eng.observe("ctx1", c1, c1 == a ? seconds(1) : seconds(9));
    const auto c2 = b.choose("ctx2", cands);
    b.eng.observe("ctx2", c2, c2 == c ? seconds(1) : seconds(9));
  }
  EXPECT_LT(b.eng.mean_seconds("ctx1", a), b.eng.mean_seconds("ctx1", c));
  EXPECT_LT(b.eng.mean_seconds("ctx2", c), b.eng.mean_seconds("ctx2", a));
  // Each context keeps its own arms: its pulls are its own 100 decisions,
  // and each settles on its own fast arm.
  EXPECT_EQ(b.eng.pulls("ctx1", a) + b.eng.pulls("ctx1", c), 100u);
  EXPECT_EQ(b.eng.pulls("ctx2", a) + b.eng.pulls("ctx2", c), 100u);
  EXPECT_GT(b.eng.pulls("ctx1", a), b.eng.pulls("ctx1", c));
  EXPECT_GT(b.eng.pulls("ctx2", c), b.eng.pulls("ctx2", a));
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
  // learner picks the best arm with probability 1 - ε·(k-1)/k ≈ 0.967.
  const ExecSite fast = home_site(Key{1});
  const ExecSite mid = home_site(Key{2});
  const ExecSite slow = home_site(Key{3});
  const auto cands = arms({slow, mid, fast});
  auto reward = [&](const ExecSite& s) {
    return s == fast ? seconds(1) : (s == mid ? seconds(3) : seconds(5));
  };

  int total_tail_fast = 0;
  constexpr int kSeeds = 50;
  constexpr int kPulls = 500;
  constexpr int kTail = 200;  // converged window: the final kTail pulls
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Bandit b{seeded(seed)};
    int tail_fast = 0;
    for (int i = 0; i < kPulls; ++i) {
      const auto c = b.choose("ctx", cands);
      if (i >= kPulls - kTail && c == fast) ++tail_fast;
      b.eng.observe("ctx", c, reward(c));
    }
    // Per-seed: convergence must hold for every seed, not just on average.
    EXPECT_GE(tail_fast, kTail * 8 / 10) << "seed " << seed;
    total_tail_fast += tail_fast;
  }
  // Aggregate over 50×200 = 10000 converged pulls: expected fast share
  // 0.967, binomial σ ≈ 0.0018 → [0.957, 0.977] is more than ±5σ.
  const double share = static_cast<double>(total_tail_fast) / (kSeeds * kTail);
  EXPECT_GT(share, 0.957);
  EXPECT_LT(share, 0.977);
}

TEST(LearnerStats, ExplorationRateMatchesEpsilon) {
  // With two well-separated arms, a converged ε-greedy learner picks the
  // worse arm only on exploration coin-flips that land there: rate ε/2.
  const ExecSite good = home_site(Key{1});
  const ExecSite bad = home_site(Key{2});
  const auto cands = arms({good, bad});

  constexpr int kSeeds = 50;
  constexpr int kBurnIn = 50;
  constexpr int kMeasured = 400;
  int bad_picks = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Bandit b{seeded(seed)};
    for (int i = 0; i < kBurnIn + kMeasured; ++i) {
      const auto c = b.choose("ctx", cands);
      if (i >= kBurnIn && c == bad) ++bad_picks;
      b.eng.observe("ctx", c, c == good ? seconds(1) : seconds(9));
    }
  }
  // 20000 measured pulls, expected bad-arm rate ε/2 = 0.025,
  // σ = sqrt(0.025·0.975/20000) ≈ 0.0011 → [0.019, 0.031] is more than ±5σ.
  const double rate = static_cast<double>(bad_picks) / (kSeeds * kMeasured);
  EXPECT_GT(rate, 0.019);
  EXPECT_LT(rate, 0.031);
}

TEST(LearnerStats, RecoversFromMidRunRewardShift) {
  // A starts fast and degrades; B starts slow and becomes fast. A pure
  // running mean never lets go of A (old samples dominate forever); the
  // min_gain recency floor bounds the stale reputation: A's tracked mean
  // crosses B's stale 5s within ~7 post-shift pulls of A, so the engine
  // switches to B within a few decisions of the shift.
  const ExecSite a = home_site(Key{1});
  const ExecSite b = home_site(Key{2});
  const auto cands = arms({a, b});

  constexpr int kSeeds = 50;
  constexpr int kPreShift = 200;
  constexpr int kPostShift = 300;
  constexpr int kTail = 100;
  constexpr int kMaxSwitchDelay = 20;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Bandit bandit{seeded(seed)};
    PlacementEngine& eng = bandit.eng;
    int tail_b = 0;
    int switched_after = -1;  // post-shift decisions until the switch to B
    for (int i = 0; i < kPreShift + kPostShift; ++i) {
      const bool shifted = i >= kPreShift;
      if (i == kPreShift) {
        EXPECT_EQ(eng.switches(), 0u) << "seed " << seed;
      }
      const auto c = bandit.choose("ctx", cands);
      if (shifted && switched_after < 0 && eng.switches() > 0) switched_after = i - kPreShift;
      Duration took;
      if (c == a) {
        took = shifted ? seconds(9) : seconds(1);
      } else {
        took = shifted ? seconds(1) : seconds(5);
      }
      if (i >= kPreShift + kPostShift - kTail && c == b) ++tail_b;
      eng.observe("ctx", c, took);
    }
    EXPECT_GE(switched_after, 0) << "seed " << seed;
    EXPECT_LE(switched_after, kMaxSwitchDelay) << "seed " << seed;
    EXPECT_GE(tail_b, kTail * 7 / 10) << "seed " << seed;
    EXPECT_LT(eng.mean_seconds("ctx", b), eng.mean_seconds("ctx", a)) << "seed " << seed;
  }
}

TEST(LearnerStats, ReferenceSeedIsPinned) {
  // One reference seed, fully pinned: the exact pull counts and near-exact
  // means. Any change to the Rng stream, the arm-selection order, or the
  // update rule moves these values — bump them only with a changelog entry
  // explaining why the learner's behavior was *meant* to change.
  const ExecSite fast = home_site(Key{1});
  const ExecSite slow = home_site(Key{2});
  const auto cands = arms({fast, slow});
  Bandit b{seeded(1234)};
  for (int i = 0; i < 100; ++i) {
    const auto c = b.choose("ctx", cands);
    b.eng.observe("ctx", c, c == fast ? seconds(1) : seconds(5));
  }
  EXPECT_EQ(b.eng.pulls("ctx", fast) + b.eng.pulls("ctx", slow), 100u);
  EXPECT_EQ(b.eng.pulls("ctx", fast), 96u);
  EXPECT_EQ(b.eng.pulls("ctx", slow), 4u);
  EXPECT_EQ(b.eng.explorations(), 6u);
  EXPECT_NEAR(b.eng.mean_seconds("ctx", fast), 1.0, 1e-9);
  EXPECT_NEAR(b.eng.mean_seconds("ctx", slow), 5.0, 1e-9);
}

TEST(LearnerStats, ZeroMinGainRestoresRunningMean) {
  // With the floor off, observe() is the textbook incremental mean.
  PlacementEngineConfig cfg = seeded(5);
  cfg.min_gain = 0.0;
  Bandit b{cfg};
  const ExecSite s = home_site(Key{1});
  b.eng.observe("ctx", s, seconds(2));
  b.eng.observe("ctx", s, seconds(4));
  b.eng.observe("ctx", s, seconds(9));
  EXPECT_NEAR(b.eng.mean_seconds("ctx", s), 5.0, 1e-9);
  EXPECT_EQ(b.eng.pulls("ctx", s), 3u);
}

TEST(LearnerEndToEnd, OutlearnsStaleResourceRecords) {
  // The desktop is secretly saturated by a non-VStore workload and the
  // monitors are off, so resource records are stale-idle: the model-based
  // decision keeps picking the (loaded) desktop. DecisionPolicy::learned
  // starts from the same stale model as its prior, but it also sees
  // realized times, and learns to run on the idle netbook instead.
  HomeCloudConfig cfg;
  cfg.netbooks = 2;
  cfg.start_monitors = false;  // records stay as published at bootstrap
  HomeCloud hc{cfg};
  hc.bootstrap();

  auto x264 = services::x264_profile();
  hc.registry().add_profile(x264);
  hc.node(1).deploy_service(x264);
  hc.desktop().deploy_service(x264);

  constexpr int kModelOps = 4;
  // The prior carries 3 pseudo-pulls of the stale model, so the engine
  // needs a few slow desktop runs before it believes its own observations.
  constexpr int kLearnedOps = 8;
  double model_total = 0, learned_total = 0;
  int model_done = 0, learned_done = 0, learned_on_netbook = 0;
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

    for (int i = 0; i < kModelOps + kLearnedOps; ++i) {
      const std::string name = "v" + std::to_string(i) + ".avi";
      ObjectMeta m;
      m.name = name;
      m.type = "avi";
      m.size = 4_MB;
      (void)co_await h.node(0).create_object(m);
      (void)co_await h.node(0).store_object(name);
    }

    // Model-based decisions (stale records → loaded desktop every time).
    for (int i = 0; i < kModelOps; ++i) {
      const auto t0 = h.sim().now();
      auto res = co_await h.node(0).process("v" + std::to_string(i) + ".avi", x264);
      if (!res.ok()) continue;
      model_total += to_seconds(h.sim().now() - t0);
      ++model_done;
    }

    // The production learner over the same two sites.
    const Key netbook = h.node(1).chimera().id();
    for (int i = kModelOps; i < kModelOps + kLearnedOps; ++i) {
      const auto t0 = h.sim().now();
      auto res = co_await h.node(0).process("v" + std::to_string(i) + ".avi", x264,
                                            DecisionPolicy::learned);
      if (!res.ok()) continue;
      learned_total += to_seconds(h.sim().now() - t0);
      ++learned_done;
      learned_on_netbook += res->site == home_site(netbook);
    }
  }(hc));

  ASSERT_EQ(model_done, kModelOps);
  ASSERT_EQ(learned_done, kLearnedOps);
  // After its warm-up pulls, the learner settles on the idle netbook; the
  // model burns every run on the saturated desktop.
  EXPECT_GE(learned_on_netbook, 3);
  EXPECT_LT(learned_total / kLearnedOps, model_total / kModelOps * 0.75);
}

}  // namespace
}  // namespace c4h::vstore
