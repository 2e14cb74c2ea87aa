// Determinism regression: one seed fully determines a run. The simulation
// core guarantees FIFO ordering at equal timestamps and every random draw
// (network jitter, fault schedule, retry jitter, workload) comes from
// streams forked off the simulation seed, so an identical seed must
// reproduce every counter and the final clock exactly — including under
// active fault injection, whose schedule is itself seed-derived.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/fault.hpp"
#include "src/vstore/home_cloud.hpp"

namespace c4h::vstore {
namespace {

using sim::Task;

struct RunTrace {
  std::uint64_t kv_puts = 0;
  std::uint64_t kv_gets = 0;
  std::uint64_t kv_retries = 0;
  std::uint64_t kv_send_timeouts = 0;
  std::uint64_t kv_replication_msgs = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_retransmits = 0;
  std::uint64_t net_flows_started = 0;
  std::uint64_t net_flows_completed = 0;
  double net_bytes = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_crashes = 0;
  std::uint64_t faults_flaps = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t store_reroutes = 0;
  std::int64_t final_time_ns = 0;
  std::size_t pending_events = 0;
  std::size_t detached = 0;
  int stores_acked = 0;
  int fetches_ok = 0;

  bool operator==(const RunTrace&) const = default;
};

RunTrace run_once(std::uint64_t seed) {
  HomeCloudConfig cfg;
  cfg.netbooks = 3;
  cfg.kv.replication = 2;
  cfg.start_stabilization = true;
  cfg.start_monitors = false;
  cfg.seed = seed;
  HomeCloud hc{cfg};
  hc.bootstrap();

  sim::FaultSpec spec;
  spec.msg_drop = 0.08;
  spec.msg_duplicate = 0.02;
  spec.msg_delay = 0.04;
  spec.mean_crash_interval = seconds(8);
  spec.mean_downtime = seconds(2);
  spec.horizon = seconds(15);
  hc.world().enable_chaos(spec);

  RunTrace t;
  hc.run([](HomeCloud& h, std::uint64_t sd, RunTrace& tr) -> Task<> {
    Rng rng{sd ^ 0xD1CEu};
    std::vector<std::string> stored;
    for (int step = 0; step < 40; ++step) {
      co_await h.sim().delay(milliseconds(300));
      auto& n = h.node(rng.below(h.node_count()));
      if (!n.online()) continue;
      if (rng.uniform() < 0.5 || stored.empty()) {
        const std::string name = "det-" + std::to_string(step) + ".jpg";
        ObjectMeta m;
        m.name = name;
        m.type = "jpg";
        m.size = 32 * 1024 + static_cast<Bytes>(step) * 1024;
        (void)co_await n.create_object(m);
        auto r = co_await n.store_object(name);
        if (r.ok()) {
          ++tr.stores_acked;
          stored.push_back(name);
        }
      } else {
        auto r = co_await n.fetch_object(stored[rng.below(stored.size())]);
        if (r.ok()) ++tr.fetches_ok;
      }
    }
    co_await h.sim().delay(seconds(8));  // restarts + repair settle
  }(hc, seed, t));

  const auto& ks = hc.kv().stats();
  const auto& ns = hc.network().stats();
  const auto& fs = hc.sim().fault()->stats();
  t.kv_puts = ks.puts;
  t.kv_gets = ks.gets;
  t.kv_retries = ks.op_retries;
  t.kv_send_timeouts = ks.send_timeouts;
  t.kv_replication_msgs = ks.replication_msgs;
  t.net_messages = ns.messages_sent;
  t.net_retransmits = ns.retransmits;
  t.net_flows_started = ns.flows_started;
  t.net_flows_completed = ns.flows_completed;
  t.net_bytes = ns.bytes_delivered;
  t.faults_dropped = fs.messages_dropped;
  t.faults_crashes = fs.crashes;
  t.faults_flaps = fs.uplink_flaps;
  for (std::size_t i = 0; i < hc.node_count(); ++i) {
    t.fetch_retries += hc.node(i).stats().fetch_retries;
    t.store_reroutes += hc.node(i).stats().store_reroutes;
  }
  t.final_time_ns = hc.sim().now().count();
  t.pending_events = hc.sim().pending_event_count();
  t.detached = hc.sim().detached_count();
  return t;
}

TEST(Determinism, SameSeedIsByteIdentical) {
  const RunTrace a = run_once(90210);
  const RunTrace b = run_once(90210);
  EXPECT_EQ(a, b);
  // The run must have exercised something nontrivial for the comparison to
  // carry weight.
  EXPECT_GT(a.stores_acked, 5);
  EXPECT_GT(a.faults_dropped, 0u);
}

TEST(Determinism, SecondIdenticalSeedPairAlsoMatches) {
  const RunTrace a = run_once(31337);
  const RunTrace b = run_once(31337);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsProduceDifferentRuns) {
  const RunTrace a = run_once(1);
  const RunTrace b = run_once(2);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace c4h::vstore
