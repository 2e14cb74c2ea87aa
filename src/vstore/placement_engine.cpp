#include "src/vstore/placement_engine.hpp"

#include <algorithm>
#include <cmath>

namespace c4h::vstore {

PlacementEngine::PlacementEngine(PlacementEngineConfig config, const WanEstimator& wan)
    : config_(config), wan_(&wan), rng_(config.seed ^ 0x517cc1b727220a95ULL) {}

void PlacementEngine::register_metrics(obs::Registry& reg) {
  decisions_counter_ = &reg.counter("c4h.placement.decision.count");
  switches_counter_ = &reg.counter("c4h.placement.switch.count");
  explorations_counter_ = &reg.counter("c4h.placement.explore.count");
  store_vetoes_counter_ = &reg.counter("c4h.placement.store_veto.count");
  regret_us_counter_ = &reg.counter("c4h.placement.regret.us");
  // Re-registering against a fresh registry must not replay history.
  decisions_counter_->add(decisions_);
  switches_counter_->add(switches_);
  explorations_counter_->add(explorations_);
  store_vetoes_counter_->add(store_vetoes_);
  regret_us_counter_->add(static_cast<std::uint64_t>(regret_seconds_ * 1e6));
}

std::string PlacementEngine::context_of(const services::ServiceProfile& service, Bytes input) {
  int bucket = 0;
  double mib = to_mib(input);
  while (mib >= 1.0) {
    mib /= 2.0;
    ++bucket;
  }
  return service.registry_key_name() + "@2^" + std::to_string(bucket) + "MiB";
}

const PlacementEngine::Arm* PlacementEngine::find_arm(const std::string& context,
                                                      const ExecSite& site) const {
  const auto st = state_.find(context);
  if (st == state_.end()) return nullptr;
  for (const Arm& a : st->second.arms) {
    if (a.site == site) return &a;
  }
  return nullptr;
}

std::uint64_t PlacementEngine::pulls(const std::string& context, const ExecSite& site) const {
  const Arm* a = find_arm(context, site);
  return a != nullptr ? a->pulls : 0;
}

double PlacementEngine::mean_seconds(const std::string& context, const ExecSite& site) const {
  const Arm* a = find_arm(context, site);
  return a != nullptr ? a->mean_seconds : 0;
}

double PlacementEngine::prior_seconds(const CandidateInfo& c) const {
  double move = 0.0;
  if (c.move_over_wan && c.move_bytes > 0) {
    // Re-price the WAN leg at the estimator's current belief instead of the
    // configured link rate baked into move_in.
    const Rate rate =
        std::max(c.move_upload ? wan_->upload_estimate() : wan_->download_estimate(), 1.0);
    move = static_cast<double>(c.move_bytes) / rate + to_seconds(c.dispatch);
  } else {
    move = to_seconds(c.move_in);
  }
  return move + to_seconds(c.exec_estimate);
}

double PlacementEngine::predicted_seconds(const std::string& context,
                                          const CandidateInfo& c) const {
  const double prior = prior_seconds(c);
  const Arm* a = find_arm(context, c.site);
  if (a == nullptr) return prior;
  const auto n = static_cast<double>(a->pulls);
  return (prior * config_.prior_weight + a->mean_seconds * n) / (config_.prior_weight + n);
}

ExecSite PlacementEngine::choose(const std::string& context,
                                 const std::vector<CandidateInfo>& candidates, TimePoint now) {
  ++decisions_;
  count(decisions_counter_);
  ContextState& st = state_[context];

  // Rank every candidate by blended prediction (stable: first best wins).
  std::size_t best = 0;
  double best_predicted = predicted_seconds(context, candidates.front());
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double p = predicted_seconds(context, candidates[i]);
    if (p < best_predicted) {
      best = i;
      best_predicted = p;
    }
  }
  // Regret baseline for the next observation in this context.
  st.last_best_predicted = best_predicted;
  st.has_prediction = true;

  // Warm-up: any arm below the pull floor gets tried before exploitation.
  for (const auto& c : candidates) {
    if (pulls(context, c.site) < static_cast<std::uint64_t>(config_.min_pulls_per_arm)) {
      ++explorations_;
      count(explorations_counter_);
      return c.site;
    }
  }

  // ε-exploration. Does not touch the incumbent: a forced detour is not a
  // decision to move, so it neither resets dwell nor counts as a switch.
  if (rng_.chance(config_.epsilon)) {
    ++explorations_;
    count(explorations_counter_);
    return candidates[rng_.below(candidates.size())].site;
  }

  // Exploit, with hysteresis against the incumbent.
  const ExecSite& challenger = candidates[best].site;
  if (st.incumbent.has_value()) {
    const auto held = std::find_if(candidates.begin(), candidates.end(),
                                   [&](const CandidateInfo& c) { return c.site == *st.incumbent; });
    if (held != candidates.end()) {
      if (challenger == *st.incumbent) return *st.incumbent;
      const double incumbent_predicted = predicted_seconds(context, *held);
      const bool dwell_elapsed = now - st.incumbent_since >= config_.min_dwell;
      const bool margin_exceeded =
          best_predicted < incumbent_predicted * (1.0 - config_.improvement_margin);
      if (!dwell_elapsed || !margin_exceeded) return *st.incumbent;
      ++switches_;
      count(switches_counter_);
      st.incumbent = challenger;
      st.incumbent_since = now;
      return challenger;
    }
    // Incumbent left the candidate set (offline / descheduled): forced
    // re-pick, not hysteresis thrash — fall through without a switch count.
  }
  st.incumbent = challenger;
  st.incumbent_since = now;
  return challenger;
}

void PlacementEngine::observe(const std::string& context, const ExecSite& site,
                              Duration observed) {
  ContextState& st = state_[context];
  auto arm = std::find_if(st.arms.begin(), st.arms.end(),
                          [&](const Arm& a) { return a.site == site; });
  if (arm == st.arms.end()) arm = st.arms.insert(st.arms.end(), Arm{.site = site});
  ++arm->pulls;
  const double x = to_seconds(observed);
  const double gain = std::max(1.0 / static_cast<double>(arm->pulls), config_.min_gain);
  arm->mean_seconds += gain * (x - arm->mean_seconds);

  if (!st.has_prediction) return;
  const double regret = std::max(0.0, x - st.last_best_predicted);
  regret_seconds_ += regret;
  count(regret_us_counter_, static_cast<std::uint64_t>(regret * 1e6));
}

Bytes PlacementEngine::cloud_threshold() const {
  const double bytes = wan_->upload_estimate() * to_seconds(config_.upload_budget);
  return static_cast<Bytes>(std::max(bytes, 0.0));
}

bool PlacementEngine::veto_cloud_store(Bytes size) {
  if (size <= cloud_threshold()) return false;
  ++store_vetoes_;
  count(store_vetoes_counter_);
  return true;
}

}  // namespace c4h::vstore
