// Online adaptive placement engine — DESIGN.md §15, the §III-B/§VII
// future-work direction ("associate learning methods and support dynamic
// adaptations") promoted to a first-class decision policy.
//
// The engine is an ε-greedy contextual bandit over execution sites, fed by
// two primitives:
//
//   * WanEstimator   — EWMA of throughput observed on completed cloud
//                      transfers, per direction (src/vstore/adaptive.hpp);
//   * a cost model   — the same per-candidate (move + exec) estimate that
//                      chimeraGetDecision trusts outright, built from
//                      src/mon resource records, but with any WAN leg
//                      re-priced at the estimator's *current* rates.
//
// Context = (service, size bucket, requester); arms = candidate sites;
// reward = the observed site-attributable time. Unlike chimeraGetDecision,
// the bandit converges onto whichever site actually performs best,
// including effects the model misses (stale records, background load,
// mis-calibrated profiles).
//
// Prediction blends the model prior with observed means: the prior acts as
// `prior_weight` pseudo-pulls, so a cold arm is ranked by the model and a
// well-pulled arm by its own history (the PR 3 per-phase span breakdown is
// the feedback signal). Decisions are damped by hysteresis — a challenger
// must beat the incumbent by `improvement_margin` AND the incumbent must
// have held the context for `min_dwell` before a switch is taken — so noisy
// near-tie estimates cannot thrash placement. All time is passed in
// explicitly (simulated TimePoint); the engine holds no clock and no
// entropy beyond its seeded Rng, keeping decisions a pure function of the
// observation history.
//
// Per-decision regret — the realized cost minus the cost predicted for the
// best candidate at choice time, accumulated in integer microseconds — and
// decision/switch/explore/veto counts are mirrored into the obs metrics
// registry (c4h.placement.*) for bench artifacts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/obs/metrics.hpp"
#include "src/services/service.hpp"
#include "src/vstore/adaptive.hpp"
#include "src/vstore/policy.hpp"

namespace c4h::vstore {

struct PlacementEngineConfig {
  double epsilon = 0.05;           // exploration probability after warm-up
  int min_pulls_per_arm = 1;       // warm-up floor: try every arm this often
  double min_gain = 0.1;           // recency floor on the arm-mean update gain
  double prior_weight = 3.0;       // pseudo-pulls the cost-model prior carries
  Duration min_dwell = seconds(10);     // incumbent tenure before a switch
  double improvement_margin = 0.15;     // challenger must be this much better
  Duration upload_budget = seconds(20); // store-veto latency budget
  std::uint64_t seed = 0x9e3779b9;
};

class PlacementEngine {
 public:
  PlacementEngine(PlacementEngineConfig config, const WanEstimator& wan);

  /// Registers the engine's counters on `reg` and adds the counts so far to
  /// them; until called, counts are tracked locally only. Call it once per
  /// registry: a second call on the same registry adds the history again.
  void register_metrics(obs::Registry& reg);

  /// Context key for a request: the service plus the input's size bucket
  /// (powers of two of MiB), so 0.9 MB and 1.1 MB images share experience.
  static std::string context_of(const services::ServiceProfile& service, Bytes input);

  /// Cost-model prior for one candidate, in seconds: move + exec, with a
  /// WAN move leg re-priced at the estimator's current rate.
  double prior_seconds(const CandidateInfo& c) const;

  /// Blended prediction: prior counts as `prior_weight` pseudo-pulls
  /// against the observed mean for (context, site).
  double predicted_seconds(const std::string& context, const CandidateInfo& c) const;

  /// Picks an execution site: warm-up pulls first, then ε-greedy over the
  /// blended predictions with dwell+margin hysteresis on the exploit path.
  ExecSite choose(const std::string& context, const std::vector<CandidateInfo>& candidates,
                  TimePoint now);

  /// Feeds back the observed site-attributable time (move + exec + result
  /// return — the per-phase span breakdown, excluding lookup/decision
  /// overhead the site choice cannot influence). The arm's mean moves by
  /// gain max(1/pulls, min_gain): a plain running mean for the first
  /// 1/min_gain pulls and a constant-step EWMA afterwards. A pure running
  /// mean never recovers from a mid-run shift (old samples dominate
  /// forever); the floor bounds how long a degraded site keeps its stale
  /// reputation. min_gain = 0 restores the pure running mean.
  void observe(const std::string& context, const ExecSite& site, Duration observed);

  /// Store-side adaptation: true when shipping `size` bytes to the remote
  /// cloud is predicted to blow the upload budget at current WAN rates, so
  /// the object should stay home. Counts vetoes.
  bool veto_cloud_store(Bytes size);

  /// Largest object worth uploading right now: the upload estimate times
  /// the budget (shrinks when the uplink degrades — the knob
  /// AdaptiveChaosSoak watches re-converge).
  Bytes cloud_threshold() const;

  /// Observed pulls and mean of an arm; 0 for one never observed.
  std::uint64_t pulls(const std::string& context, const ExecSite& site) const;
  double mean_seconds(const std::string& context, const ExecSite& site) const;

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t switches() const { return switches_; }
  std::uint64_t explorations() const { return explorations_; }
  std::uint64_t store_vetoes() const { return store_vetoes_; }
  /// Cumulative per-decision regret (realized − best-predicted, clamped ≥0).
  double regret_seconds() const { return regret_seconds_; }

  const PlacementEngineConfig& config() const { return config_; }

 private:
  struct Arm {
    ExecSite site;
    std::uint64_t pulls = 0;
    double mean_seconds = 0;
  };

  struct ContextState {
    std::vector<Arm> arms;  // few sites per context: a linear scan suffices
    std::optional<ExecSite> incumbent;
    TimePoint incumbent_since{};
    double last_best_predicted = 0.0;  // best blended prediction at last choose
    bool has_prediction = false;
  };

  /// The arm for `site` in `context`, or nullptr if it was never observed.
  const Arm* find_arm(const std::string& context, const ExecSite& site) const;

  void count(obs::Counter* c, std::uint64_t n = 1) {
    if (c != nullptr) c->add(n);
  }

  PlacementEngineConfig config_;
  const WanEstimator* wan_;
  Rng rng_;
  std::map<std::string, ContextState> state_;

  std::uint64_t decisions_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t explorations_ = 0;
  std::uint64_t store_vetoes_ = 0;
  double regret_seconds_ = 0.0;

  obs::Counter* decisions_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;
  obs::Counter* explorations_counter_ = nullptr;
  obs::Counter* store_vetoes_counter_ = nullptr;
  obs::Counter* regret_us_counter_ = nullptr;
};

}  // namespace c4h::vstore
