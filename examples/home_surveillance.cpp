// Home surveillance (§II): a camera node captures frames, a size-threshold
// storage policy keeps small frames home and spills large ones to the
// cloud, and every frame runs the face-detection → face-recognition
// pipeline wherever the decision engine says — home desktop for cheap
// frames, EC2 when the home is busy. An "alert" is the pipeline completing.
//
//   $ ./examples/home_surveillance
#include <cstdio>

#include "src/common/stats.hpp"
#include "src/obs/metrics.hpp"
#include "src/vstore/home_cloud.hpp"

using namespace c4h;
using sim::Task;

namespace {

struct AlertStats {
  Accumulator latency_s;
  obs::LogHistogram latency_ns;  // percentiles
  int home_runs = 0;
  int cloud_runs = 0;
  int cloud_stored = 0;
};

Task<> camera_loop(vstore::HomeCloud& home, AlertStats& stats, int frames) {
  auto& camera = home.node(0);
  const auto fdet = *home.registry().profile("face-detect", 1);
  const auto frec = *home.registry().profile("face-recognize", 2);

  Rng rng{2026};
  for (int i = 0; i < frames; ++i) {
    // Motion events arrive every few seconds; frame size depends on scene
    // complexity.
    co_await home.sim().delay(seconds(2) + milliseconds(static_cast<long>(rng.below(3000))));
    const Bytes size = 256_KB + rng.below(1536) * 1_KB;  // 0.25 - 1.75 MB

    vstore::ObjectMeta frame;
    frame.name = "cam0/frame-" + std::to_string(i) + ".jpg";
    frame.type = "jpg";
    frame.size = size;
    frame.tags = {"surveillance"};

    // The paper's surveillance policy: store images below a size threshold
    // on a home node, larger ones in the remote cloud.
    vstore::StoreOptions opts;
    opts.policy = vstore::StoragePolicy::size_threshold(1_MB);

    (void)co_await camera.create_object(frame);
    auto stored = co_await camera.store_object(frame.name, opts);
    if (!stored.ok()) continue;
    stats.cloud_stored += stored->location.is_cloud();

    const auto t0 = home.sim().now();
    std::vector<services::ServiceProfile> pipeline{fdet, frec};
    auto alert = co_await camera.process_pipeline(frame.name, pipeline);
    if (!alert.ok()) continue;

    stats.latency_s.add(to_seconds(home.sim().now() - t0));
    stats.latency_ns.record(static_cast<std::uint64_t>((home.sim().now() - t0).count()));
    if (alert->site.kind == vstore::ExecSite::Kind::ec2) {
      ++stats.cloud_runs;
    } else {
      ++stats.home_runs;
    }
  }
}

}  // namespace

int main() {
  vstore::HomeCloud home;
  home.bootstrap();

  auto fdet = services::face_detect_profile();
  auto frec = services::face_recognize_profile(60_MB);
  home.registry().add_profile(fdet);
  home.registry().add_profile(frec);
  // The desktop and the camera's own netbook can run the pipeline; so can
  // EC2 (with the public training gallery).
  home.node(0).deploy_service(fdet);
  home.node(0).deploy_service(frec);
  home.desktop().deploy_service(fdet);
  home.desktop().deploy_service(frec);
  home.deploy_service_in_cloud(fdet);
  home.deploy_service_in_cloud(frec);

  AlertStats stats;
  home.run([&stats](vstore::HomeCloud& h) -> Task<> {
    (void)co_await h.node(0).publish_services();
    (void)co_await h.desktop().publish_services();
    co_await camera_loop(h, stats, /*frames=*/30);
  }(home));

  std::printf("home surveillance: %llu frames analyzed over %.0f simulated seconds\n",
              static_cast<unsigned long long>(stats.latency_s.count()),
              to_seconds(home.sim().now()));
  std::printf("  alert latency: mean %.2f s, p95 %.2f s, max %.2f s\n", stats.latency_s.mean(),
              static_cast<double>(stats.latency_ns.quantile(95.0)) * 1e-9,
              stats.latency_s.max());
  std::printf("  pipeline ran at home %d times, on EC2 %d times\n", stats.home_runs,
              stats.cloud_runs);
  std::printf("  %d large frames spilled to S3 by the size policy\n", stats.cloud_stored);
  return 0;
}
