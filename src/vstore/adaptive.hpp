// Adaptation to changing network conditions — §VII future work (iv):
// "design and evaluate mechanisms that adapt to the changing network
// conditions".
//
// WanEstimator keeps an EWMA of the throughput actually observed on
// completed cloud transfers (per direction). PlacementEngine derives its
// cloud-store size threshold from the current upload estimate: an object
// goes to the remote cloud only if shipping it is predicted to finish within
// a latency budget, so when the uplink degrades, large objects stay home.
#pragma once

#include <cstdint>

#include "src/common/units.hpp"

namespace c4h::vstore {

class WanEstimator {
 public:
  explicit WanEstimator(double alpha = 0.3, Rate initial_up = mib_per_sec(1.0),
                        Rate initial_down = mib_per_sec(1.45))
      : alpha_(alpha), up_(initial_up), down_(initial_down) {}

  void observe_upload(Bytes size, Duration took) { observe(up_, n_up_, size, took); }
  void observe_download(Bytes size, Duration took) { observe(down_, n_down_, size, took); }

  Rate upload_estimate() const { return up_; }
  Rate download_estimate() const { return down_; }

  /// Accepted samples per direction. The two streams feed independent EWMAs
  /// (an asymmetric DSL line degrades them independently), so their counts
  /// are tracked separately too; `observations()` stays as the total.
  std::uint64_t upload_observations() const { return n_up_; }
  std::uint64_t download_observations() const { return n_down_; }
  std::uint64_t observations() const { return n_up_ + n_down_; }

 private:
  void observe(Rate& est, std::uint64_t& n, Bytes size, Duration took) {
    if (took <= Duration::zero() || size == 0) return;
    const Rate sample = static_cast<double>(size) / to_seconds(took);
    est = alpha_ * sample + (1.0 - alpha_) * est;
    ++n;
  }

  double alpha_;
  Rate up_;
  Rate down_;
  std::uint64_t n_up_ = 0;
  std::uint64_t n_down_ = 0;
};

}  // namespace c4h::vstore
