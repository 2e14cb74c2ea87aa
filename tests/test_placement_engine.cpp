// PlacementEngine unit suite (DESIGN.md §15): cost-model prior with WAN
// re-pricing, prior/observation blending, dwell+margin hysteresis (no
// thrash on near-ties), store-veto accounting, regret accounting, metrics
// mirroring, and decision-stream determinism. Everything here is exact and
// clock-free: time is passed in as explicit TimePoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/obs/metrics.hpp"
#include "src/vstore/placement_engine.hpp"

namespace c4h::vstore {
namespace {

ExecSite home_site(Key k) { return ExecSite{ExecSite::Kind::home_node, k}; }

CandidateInfo home_cand(Key k, Duration exec, Duration move_in = Duration::zero()) {
  CandidateInfo c;
  c.site = home_site(k);
  c.move_in = move_in;
  c.exec_estimate = exec;
  return c;
}

PlacementEngineConfig exact_config() {
  // No exploration, no warm-up: choose() is a deterministic argmin with
  // hysteresis, which is what these tests pin down.
  PlacementEngineConfig cfg;
  cfg.epsilon = 0.0;
  cfg.min_pulls_per_arm = 0;
  return cfg;
}

TEST(PlacementEngine, PriorRepricesWanLegAtEstimatedRate) {
  WanEstimator wan{0.3, mib_per_sec(2.0), mib_per_sec(4.0)};
  PlacementEngine eng{exact_config(), wan};

  CandidateInfo ec2;
  ec2.site = ExecSite{ExecSite::Kind::ec2, {}};
  ec2.move_in = seconds(100);  // configured-rate estimate: must be ignored
  ec2.move_bytes = 4_MB;
  ec2.move_over_wan = true;
  ec2.move_upload = true;
  ec2.dispatch = milliseconds(350);
  ec2.exec_estimate = seconds(1);
  // 4 MiB at the estimator's 2 MiB/s + 0.35s dispatch + 1s exec.
  EXPECT_NEAR(eng.prior_seconds(ec2), 2.0 + 0.35 + 1.0, 1e-9);

  // A home-LAN move leg keeps its move_in estimate untouched.
  const CandidateInfo local = home_cand(Key{1}, seconds(2), milliseconds(500));
  EXPECT_NEAR(eng.prior_seconds(local), 2.5, 1e-9);

  // Download-direction legs re-price at the download estimate.
  CandidateInfo down = ec2;
  down.move_upload = false;
  EXPECT_NEAR(eng.prior_seconds(down), 1.0 + 0.35 + 1.0, 1e-9);
}

TEST(PlacementEngine, PredictionBlendsPriorWithObservedMean) {
  WanEstimator wan;
  PlacementEngineConfig cfg = exact_config();
  cfg.prior_weight = 3.0;
  PlacementEngine eng{cfg, wan};

  const CandidateInfo c = home_cand(Key{1}, seconds(1));
  // Cold arm: prediction is the prior.
  EXPECT_NEAR(eng.predicted_seconds("ctx", c), 1.0, 1e-9);
  // Three observed 5s pulls against a 1s prior carrying 3 pseudo-pulls:
  // (1·3 + 5·3) / 6 = 3.
  for (int i = 0; i < 3; ++i) eng.observe("ctx", c.site, seconds(5));
  EXPECT_NEAR(eng.predicted_seconds("ctx", c), 3.0, 1e-9);
}

TEST(PlacementEngine, SwitchRequiresDwellAndMargin) {
  WanEstimator wan;
  PlacementEngine eng{exact_config(), wan};
  const std::vector<CandidateInfo> initial = {home_cand(Key{1}, seconds(1)),
                                              home_cand(Key{2}, seconds(2))};
  EXPECT_EQ(eng.choose("ctx", initial, TimePoint{}), initial[0].site);
  EXPECT_EQ(eng.switches(), 0u);

  // The challenger now clears the 15% margin (0.5 < 1.0 · 0.85), but the
  // incumbent has not dwelt long enough: no switch.
  const std::vector<CandidateInfo> flipped = {home_cand(Key{1}, seconds(1)),
                                              home_cand(Key{2}, milliseconds(500))};
  EXPECT_EQ(eng.choose("ctx", flipped, TimePoint{seconds(1)}), initial[0].site);
  EXPECT_EQ(eng.switches(), 0u);

  // Dwell elapsed AND margin exceeded: the switch happens, exactly once.
  EXPECT_EQ(eng.choose("ctx", flipped, TimePoint{seconds(11)}), flipped[1].site);
  EXPECT_EQ(eng.switches(), 1u);
}

TEST(PlacementEngine, DwellAloneDoesNotSwitchOnThinMargins) {
  WanEstimator wan;
  PlacementEngine eng{exact_config(), wan};
  const std::vector<CandidateInfo> initial = {home_cand(Key{1}, seconds(1)),
                                              home_cand(Key{2}, seconds(2))};
  EXPECT_EQ(eng.choose("ctx", initial, TimePoint{}), initial[0].site);

  // 10% better, dwell long past: 0.9 > 1.0 · 0.85, so the margin gate holds.
  const std::vector<CandidateInfo> thin = {home_cand(Key{1}, seconds(1)),
                                           home_cand(Key{2}, milliseconds(900))};
  EXPECT_EQ(eng.choose("ctx", thin, TimePoint{seconds(60)}), initial[0].site);
  EXPECT_EQ(eng.switches(), 0u);
}

TEST(PlacementEngine, NearTieEstimatesNeverThrash) {
  // Alternating 2% leads, every decision past the dwell window: a damping
  // bug that flips on any lead would show up as hundreds of switches.
  WanEstimator wan;
  PlacementEngine eng{exact_config(), wan};
  const Key a{1}, b{2};
  for (int i = 0; i < 500; ++i) {
    const bool a_leads = i % 2 == 0;
    const std::vector<CandidateInfo> cands = {
        home_cand(a, a_leads ? milliseconds(980) : milliseconds(1000)),
        home_cand(b, a_leads ? milliseconds(1000) : milliseconds(980))};
    const ExecSite chosen = eng.choose("ctx", cands, TimePoint{seconds(20 * (i + 1))});
    EXPECT_EQ(chosen, home_site(a)) << "decision " << i;
  }
  EXPECT_EQ(eng.switches(), 0u);
  EXPECT_EQ(eng.decisions(), 500u);
}

TEST(PlacementEngine, WarmUpPullsCountAsExplorations) {
  WanEstimator wan;
  PlacementEngineConfig cfg = exact_config();
  cfg.min_pulls_per_arm = 2;
  PlacementEngine eng{cfg, wan};
  const std::vector<CandidateInfo> cands = {home_cand(Key{1}, seconds(1)),
                                            home_cand(Key{2}, seconds(2))};
  for (int i = 0; i < 4; ++i) {
    const ExecSite s = eng.choose("ctx", cands, TimePoint{});
    eng.observe("ctx", s, seconds(1));
  }
  EXPECT_EQ(eng.explorations(), 4u) << "2 arms × pull floor 2";
  EXPECT_EQ(eng.pulls("ctx", cands[0].site), 2u);
  EXPECT_EQ(eng.pulls("ctx", cands[1].site), 2u);
  // Warm-up satisfied: the next decision exploits (no new exploration).
  (void)eng.choose("ctx", cands, TimePoint{});
  EXPECT_EQ(eng.explorations(), 4u);
}

TEST(PlacementEngine, ExplorationNeverTouchesIncumbent) {
  WanEstimator wan;
  PlacementEngineConfig cfg = exact_config();
  PlacementEngine eng{cfg, wan};
  const std::vector<CandidateInfo> cands = {home_cand(Key{1}, seconds(1)),
                                            home_cand(Key{2}, seconds(2))};
  EXPECT_EQ(eng.choose("ctx", cands, TimePoint{}), cands[0].site);

  // All-exploration engine state: forced detours must not register switches
  // or reset the incumbent, whatever arm they land on.
  PlacementEngineConfig wild = exact_config();
  wild.epsilon = 1.0;
  PlacementEngine roam{wild, wan};
  (void)roam.choose("ctx", cands, TimePoint{});  // establishes nothing: explored
  for (int i = 0; i < 50; ++i) {
    (void)roam.choose("ctx", cands, TimePoint{seconds(20 * (i + 1))});
  }
  EXPECT_EQ(roam.switches(), 0u);
  EXPECT_EQ(roam.explorations(), 51u);
}

TEST(PlacementEngine, IncumbentLeavingCandidatesForcesRepickWithoutSwitch) {
  WanEstimator wan;
  PlacementEngine eng{exact_config(), wan};
  const std::vector<CandidateInfo> with_a = {home_cand(Key{1}, seconds(1)),
                                             home_cand(Key{2}, seconds(2))};
  EXPECT_EQ(eng.choose("ctx", with_a, TimePoint{}), with_a[0].site);

  // The incumbent goes offline: re-pick among the rest, not a thrash event.
  const std::vector<CandidateInfo> without_a = {home_cand(Key{2}, seconds(2)),
                                                home_cand(Key{3}, seconds(3))};
  EXPECT_EQ(eng.choose("ctx", without_a, TimePoint{seconds(1)}), without_a[0].site);
  EXPECT_EQ(eng.switches(), 0u);
}

TEST(PlacementEngine, VetoTracksShrinkingThreshold) {
  WanEstimator wan;  // healthy uplink estimate: 1 MiB/s
  PlacementEngineConfig cfg = exact_config();
  cfg.upload_budget = seconds(2);
  PlacementEngine eng{cfg, wan};
  EXPECT_EQ(eng.cloud_threshold(), 2_MB);
  EXPECT_FALSE(eng.veto_cloud_store(1_MB));
  EXPECT_TRUE(eng.veto_cloud_store(4_MB));
  EXPECT_EQ(eng.store_vetoes(), 1u);

  // The uplink collapses to ~50 KiB/s: the threshold shrinks with the EWMA
  // and yesterday's fine-sized object is vetoed home.
  for (int i = 0; i < 20; ++i) wan.observe_upload(512_KB, seconds(10));
  EXPECT_LT(eng.cloud_threshold(), 1_MB);
  EXPECT_TRUE(eng.veto_cloud_store(1_MB));
  EXPECT_EQ(eng.store_vetoes(), 2u);
}

TEST(PlacementEngine, RegretAccumulatesOnlyRealizedShortfall) {
  WanEstimator wan;
  PlacementEngine eng{exact_config(), wan};
  const std::vector<CandidateInfo> cands = {home_cand(Key{1}, seconds(1))};
  const ExecSite s = eng.choose("ctx", cands, TimePoint{});
  // Realized 3s against a 1s best prediction: 2s of regret.
  eng.observe("ctx", s, seconds(3));
  EXPECT_NEAR(eng.regret_seconds(), 2.0, 1e-9);
  // Beating the prediction adds zero (clamped), never negative.
  (void)eng.choose("ctx", cands, TimePoint{seconds(1)});
  eng.observe("ctx", s, milliseconds(100));
  EXPECT_NEAR(eng.regret_seconds(), 2.0, 1e-6);
}

TEST(PlacementEngine, MetricsMirrorCountsIncludingHistory) {
  WanEstimator wan;
  PlacementEngineConfig cfg = exact_config();
  cfg.upload_budget = seconds(2);
  PlacementEngine eng{cfg, wan};
  const std::vector<CandidateInfo> initial = {home_cand(Key{1}, seconds(1)),
                                              home_cand(Key{2}, seconds(2))};
  const std::vector<CandidateInfo> flipped = {home_cand(Key{1}, seconds(1)),
                                              home_cand(Key{2}, milliseconds(500))};
  // Activity before registration must be carried into the registry: two
  // decisions, the second a switch past the dwell window.
  (void)eng.choose("ctx", initial, TimePoint{});
  const ExecSite switched = eng.choose("ctx", flipped, TimePoint{seconds(11)});
  ASSERT_EQ(switched, flipped[1].site);
  // Realized 2s against the 0.5s best prediction: 1.5s of regret.
  eng.observe("ctx", switched, seconds(2));
  (void)eng.veto_cloud_store(100_MB);

  obs::Registry reg;
  eng.register_metrics(reg);
  // Only decisions and switches are mirrored; vetoes and regret are read
  // through the engine's accessors.
  const std::map<std::string, std::uint64_t> mirrored = {
      {"c4h.placement.decision.count", 2}, {"c4h.placement.switch.count", 1}};
  EXPECT_EQ(reg.snapshot().counters, mirrored);
  EXPECT_EQ(eng.store_vetoes(), 1u);
  EXPECT_NEAR(eng.regret_seconds(), 1.5, 1e-9);

  (void)eng.choose("ctx", flipped, TimePoint{seconds(12)});
  EXPECT_EQ(reg.counter("c4h.placement.decision.count").value(), 3u);
  EXPECT_EQ(reg.counter("c4h.placement.switch.count").value(), 1u);
}

TEST(PlacementEngine, DecisionStreamIsDeterministicPerSeed) {
  WanEstimator wan;
  PlacementEngineConfig cfg;  // defaults: ε > 0, so the Rng stream matters
  cfg.min_dwell = seconds(0);
  auto drive = [&](PlacementEngine& eng) {
    std::vector<ExecSite> picks;
    const std::vector<CandidateInfo> cands = {home_cand(Key{1}, seconds(1)),
                                              home_cand(Key{2}, seconds(2)),
                                              home_cand(Key{3}, seconds(3))};
    for (int i = 0; i < 200; ++i) {
      const ExecSite s = eng.choose("ctx", cands, TimePoint{seconds(i)});
      eng.observe("ctx", s, seconds(s == cands[0].site ? 1 : 4));
      picks.push_back(s);
    }
    return picks;
  };
  PlacementEngine a{cfg, wan};
  PlacementEngine b{cfg, wan};
  EXPECT_EQ(drive(a), drive(b));

  PlacementEngineConfig other = cfg;
  other.seed ^= 0xdeadbeef;
  PlacementEngine c{other, wan};
  EXPECT_NE(drive(a), drive(c)) << "different seeds must explore differently";
}

}  // namespace
}  // namespace c4h::vstore
