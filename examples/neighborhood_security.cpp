// Neighborhood security (§VII): "multiple Cloud4Home systems interact to
// provide effective security services for entire neighborhoods."
//
// Three homes on one street — a one-neighborhood City — run their own
// surveillance pipelines. When a home's camera flags a suspicious event, it
// publishes the snapshot to the city federation; the other homes pull it
// from the origin home and run recognition against their own galleries
// ("have we seen this person?"), raising a neighborhood-wide alert when
// enough homes confirm.
//
//   $ ./examples/neighborhood_security
#include <cstdio>

#include "src/common/stats.hpp"
#include "src/federation/geo_federation.hpp"

using namespace c4h;
using federation::FetchPath;
using federation::GeoFederation;
using sim::Task;
using vstore::City;
using vstore::HomeCloud;
using vstore::HomeCloudConfig;
using vstore::Neighborhood;

namespace {

HomeCloudConfig home_cfg(const std::string& name) {
  HomeCloudConfig cfg;
  cfg.home_name = name;
  cfg.netbooks = 2;
  cfg.with_desktop = true;
  return cfg;
}

struct WatchStats {
  int events = 0;
  int confirmations = 0;
  int neighborhood_alerts = 0;
  Samples end_to_end_s;
};

}  // namespace

int main() {
  City city;
  Neighborhood hood{city, {.name = "maple-st"}};
  std::vector<std::unique_ptr<HomeCloud>> homes;
  for (const char* name : {"maple-st-12", "maple-st-14", "maple-st-16"}) {
    homes.push_back(std::make_unique<HomeCloud>(hood, home_cfg(name)));
  }
  for (auto& h : homes) h->bootstrap();

  GeoFederation fed{city};

  // Every home can run detection + recognition on its desktop.
  auto fdet = services::face_detect_profile();
  auto frec = services::face_recognize_profile(60_MB);
  for (auto& h : homes) {
    h->registry().add_profile(fdet);
    h->registry().add_profile(frec);
    h->desktop().deploy_service(fdet);
    h->desktop().deploy_service(frec);
  }

  WatchStats stats;
  city.run([&](City& c) -> Task<> {
    for (auto& h : homes) {
      (void)co_await h->desktop().publish_services();
    }
    const auto fd = *homes[0]->registry().profile("face-detect", 1);
    const auto fr = *homes[0]->registry().profile("face-recognize", 2);

    Rng rng{77};
    for (int event = 0; event < 6; ++event) {
      co_await c.sim().delay(seconds(10));
      const std::size_t src = rng.below(homes.size());
      HomeCloud& origin = *homes[src];
      const auto t0 = c.sim().now();
      ++stats.events;

      // 1. The origin home captures and screens the snapshot locally.
      const std::string snap = origin.config().home_name + "/event-" +
                               std::to_string(event) + ".jpg";
      vstore::ObjectMeta m;
      m.name = snap;
      m.type = "jpg";
      m.size = 512_KB + rng.below(512) * 1_KB;
      m.tags = {"surveillance"};
      (void)co_await origin.node(0).create_object(m);
      auto stored = co_await origin.node(0).store_object(snap);
      if (!stored.ok()) continue;
      auto det = co_await origin.node(0).process(snap, fd);
      if (!det.ok()) continue;

      // 2. Publish to the neighborhood and let the other homes check it
      //    against their galleries.
      (void)co_await fed.publish(origin, origin.node(0), snap);
      int confirms = 0;
      for (auto& h : homes) {
        if (h.get() == &origin) continue;
        auto pulled = co_await fed.fetch(*h, h->node(0), snap);
        if (!pulled.ok()) continue;
        // The pulled snapshot lands in the neighbour's home cloud; store it
        // so the pipeline can reference it, then recognize.
        vstore::ObjectMeta copy;
        copy.name = h->config().home_name + "/pulled-" + std::to_string(event) + ".jpg";
        copy.type = "jpg";
        copy.size = pulled->size;
        (void)co_await h->node(0).create_object(copy);
        (void)co_await h->node(0).store_object(copy.name);
        auto rec = co_await h->node(0).process(copy.name, fr);
        if (rec.ok()) {
          ++confirms;  // this home's gallery produced a match id
        }
      }
      stats.confirmations += confirms;
      if (confirms >= 2) ++stats.neighborhood_alerts;
      stats.end_to_end_s.add(to_seconds(c.sim().now() - t0));
    }
  }(city));

  std::printf("neighborhood security — 3 homes on one street, %.0f simulated s\n",
              to_seconds(city.sim().now()));
  std::printf("  %d events screened; %d neighbour confirmations; %d street-wide alerts\n",
              stats.events, stats.confirmations, stats.neighborhood_alerts);
  std::printf("  event → street-wide decision: mean %.1f s, max %.1f s\n",
              stats.end_to_end_s.mean(), stats.end_to_end_s.max());
  std::printf("  federation: %zu directory entries, %llu cross-home pulls, %.1f MB exchanged\n",
              fed.directory_size(),
              static_cast<unsigned long long>(
                  fed.stats().fetches[static_cast<std::size_t>(FetchPath::neighborhood)]),
              fed.stats().bytes_fetched / (1024.0 * 1024.0));
  return 0;
}
