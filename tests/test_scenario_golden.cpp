// Fixed-seed golden smoke test for the scenario bench family: runs three
// benches — scenario_iot_telemetry, scenario_federation and ablation_design
// — with --quick twice each with the same seed in separate scratch
// directories, asserts the emitted BENCH JSON artifacts are byte-identical,
// and validates each against schema c4h-bench-v1 including the
// tail-latency (p50/p99/p999) rows the scenarios add.
//
// On top of run-to-run identity, the artifacts are compared byte-for-byte
// against checked-in goldens (tests/golden/BENCH_*.json) captured before the
// event-engine rewrite: the simulator core may change its storage and
// solver plumbing, but a fixed seed's simulated history may not move by a
// single byte. Regenerate with C4H_UPDATE_GOLDEN=1 only for an intended
// behavior change, and explain it in the commit.
//
// The bench binary paths are injected by CMake (C4H_SCENARIO_BIN,
// C4H_SCENARIO_FED_BIN, C4H_ABLATION_BIN); the golden dir is C4H_GOLDEN_DIR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

namespace {

// Runs a scenario binary in `dir` (created fresh) and returns the artifact
// text it emitted.
std::string run_bench_in(const std::string& bin, const std::string& artifact,
                         const std::string& dir) {
  const std::string cmd = "rm -rf " + dir + " && mkdir -p " + dir + " && cd " + dir +
                          " && " + bin + " --quick --seed 97 > run.log 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "scenario run failed, see " << dir << "/run.log";
  std::ifstream in(dir + "/" + artifact);
  EXPECT_TRUE(in.good()) << "artifact missing in " << dir;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string run_scenario_in(const std::string& dir) {
  return run_bench_in(C4H_SCENARIO_BIN, "BENCH_scenario_iot_telemetry.json", dir);
}

std::string scratch(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/c4h_scenario_golden_" + leaf;
}

// Byte-compares `fresh` against the checked-in golden artifact, or rewrites
// the golden when C4H_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& fresh, const std::string& artifact) {
  const std::string path = std::string(C4H_GOLDEN_DIR) + "/" + artifact;
  if (std::getenv("C4H_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run once with C4H_UPDATE_GOLDEN=1 to create)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(fresh, buf.str())
      << "seed-97 artifact drifted from the checked-in golden " << path
      << "; a simulated history changed. If intended, rerun with "
         "C4H_UPDATE_GOLDEN=1 and justify the change in the commit.";
}

TEST(ScenarioGolden, SameSeedRunsAreByteIdenticalAndSchemaValid) {
  const std::string a = run_scenario_in(scratch("a"));
  const std::string b = run_scenario_in(scratch("b"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed scenario runs must emit byte-identical artifacts";
  expect_matches_golden(a, "BENCH_scenario_iot_telemetry.json");

  const auto parsed = c4h::obs::json_parse(a);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const c4h::obs::JsonValue& root = *parsed;

  const auto* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "c4h-bench-v1");
  const auto* bench = root.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str, "scenario_iot_telemetry");
  const auto* seed = root.find("seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_EQ(seed->num, 97.0);

  const auto* series = root.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->items.empty());

  // Every row carries label/metric/value/unit; the tail extension must be
  // present for at least one workload histogram (count, mean, p50/p99/p999).
  std::set<std::string> suffixes;
  for (const auto& row : series->items) {
    for (const char* key : {"label", "metric", "unit"}) {
      const auto* v = row.find(key);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(v->kind, c4h::obs::JsonValue::Kind::string);
    }
    const auto* value = row.find("value");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->kind, c4h::obs::JsonValue::Kind::number);
    const std::string& metric = row.find("metric")->str;
    const auto dot = metric.rfind('.');
    if (dot != std::string::npos) suffixes.insert(metric.substr(dot + 1));
  }
  for (const char* tail : {"count", "mean", "p50", "p99", "p999"}) {
    EXPECT_TRUE(suffixes.contains(tail)) << "missing tail row: " << tail;
  }
}

TEST(ScenarioGolden, FederationSameSeedByteIdenticalWithPerPathTails) {
  const std::string artifact = "BENCH_scenario_federation.json";
  const std::string a = run_bench_in(C4H_SCENARIO_FED_BIN, artifact, scratch("fed_a"));
  const std::string b = run_bench_in(C4H_SCENARIO_FED_BIN, artifact, scratch("fed_b"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed federation runs must emit byte-identical artifacts";
  expect_matches_golden(a, "BENCH_scenario_federation.json");

  const auto parsed = c4h::obs::json_parse(a);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const c4h::obs::JsonValue& root = *parsed;
  const auto* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "c4h-bench-v1");
  const auto* bench = root.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str, "scenario_federation");

  const auto* series = root.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->items.empty());

  // The headline series: a fetch count row per serving tier, and latency
  // rows (mean, p50/p99/p999) for exactly the tiers that served at least one
  // fetch — a tier that served none reports no latency.
  std::map<std::string, double> fetches;  // label → fed.fetch.count
  std::map<std::string, std::set<std::string>> latency_rows;  // label → suffixes
  const std::string latency_prefix = "fed.fetch.latency.";
  for (const auto& row : series->items) {
    const auto* label = row.find("label");
    const auto* metric = row.find("metric");
    const auto* value = row.find("value");
    ASSERT_NE(label, nullptr);
    ASSERT_NE(metric, nullptr);
    ASSERT_NE(value, nullptr);
    if (metric->str == "fed.fetch.count") fetches[label->str] = value->num;
    if (metric->str.starts_with(latency_prefix)) {
      latency_rows[label->str].insert(metric->str.substr(latency_prefix.size()));
    }
  }
  int served = 0;
  for (const char* path : {"path=local", "path=neighborhood", "path=wide_area", "path=cloud"}) {
    ASSERT_TRUE(fetches.contains(path)) << "missing fetch-count row: " << path;
    const std::set<std::string> want =
        fetches[path] > 0 ? std::set<std::string>{"count", "mean", "p50", "p99", "p999"}
                          : std::set<std::string>{"count"};
    served += fetches[path] > 0;
    EXPECT_EQ(latency_rows[path], want) << "latency rows for " << path << " with "
                                        << fetches[path] << " fetches";
  }
  EXPECT_GT(served, 0) << "no tier served a fetch";
}

// The ablation artifact is the headline deliverable of the placement-engine
// work: on top of byte-identity and schema validity it must *prove* the
// acceptance claim — learned within 5% of the best static policy's p99 on
// every steady scenario, strictly better than every static policy on the
// uplink-flap scenario — and carry the learned-only counter and regret-series
// rows the bench promises. The bench runs one `static` cell per scenario: the
// three static policies make identical choices there (DESIGN.md §15).
TEST(ScenarioGolden, AblationSameSeedByteIdenticalAndLearnedMeetsAcceptance) {
  const std::string artifact = "BENCH_ablation_design.json";
  const std::string a = run_bench_in(C4H_ABLATION_BIN, artifact, scratch("abl_a"));
  const std::string b = run_bench_in(C4H_ABLATION_BIN, artifact, scratch("abl_b"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed ablation runs must emit byte-identical artifacts";
  expect_matches_golden(a, artifact);

  const auto parsed = c4h::obs::json_parse(a);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const c4h::obs::JsonValue& root = *parsed;
  const auto* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "c4h-bench-v1");
  const auto* bench = root.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str, "ablation_design");

  const auto* series = root.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->items.empty());

  // label → metric → value (labels are "<scenario>/<policy>" plus the
  // learned regret-series labels "<scenario>/learned/t=<i>of12").
  std::map<std::string, std::map<std::string, double>> cells;
  for (const auto& row : series->items) {
    const auto* label = row.find("label");
    const auto* metric = row.find("metric");
    const auto* value = row.find("value");
    ASSERT_NE(label, nullptr);
    ASSERT_NE(metric, nullptr);
    ASSERT_NE(value, nullptr);
    cells[label->str][metric->str] = value->num;
  }

  const std::vector<std::string> statics = {"static"};
  const std::vector<std::string> steady = {"iot_fanin", "flash_crowd", "mixed_tenants"};
  auto cell_metric = [&](const std::string& label, const std::string& metric) {
    const auto cit = cells.find(label);
    EXPECT_NE(cit, cells.end()) << "missing cell " << label;
    if (cit == cells.end()) return -1.0;
    const auto mit = cit->second.find(metric);
    EXPECT_NE(mit, cit->second.end()) << "missing " << metric << " in " << label;
    return mit == cit->second.end() ? -1.0 : mit->second;
  };

  // Steady scenarios: learned p99 within 5% of the best static policy.
  for (const std::string& scn : steady) {
    double best_static = -1.0;
    for (const std::string& pol : statics) {
      const double p99 = cell_metric(scn + "/" + pol, "ablation.latency.p99");
      if (best_static < 0.0 || p99 < best_static) best_static = p99;
    }
    const double learned = cell_metric(scn + "/learned", "ablation.latency.p99");
    EXPECT_LE(learned, best_static * 1.05)
        << scn << ": learned p99 " << learned << " ns not within 5% of best static "
        << best_static << " ns";
  }

  // Uplink-flap scenario: learned strictly better than EVERY static policy,
  // at the median, the tail, and the mean.
  for (const std::string& pol : statics) {
    for (const char* m : {"ablation.latency.p50", "ablation.latency.p99", "ablation.latency.mean"}) {
      const double st = cell_metric("uplink_flap/" + pol, m);
      const double le = cell_metric("uplink_flap/learned", m);
      EXPECT_LT(le, st) << "uplink_flap " << m << ": learned " << le
                        << " must beat " << pol << " " << st;
    }
  }

  // Learned-only rows: engine counters and the fixed-length regret series,
  // present for every scenario; vetoes must actually fire under flaps.
  for (const auto& scn : {"iot_fanin", "flash_crowd", "mixed_tenants", "uplink_flap"}) {
    const std::string label = std::string(scn) + "/learned";
    for (const char* m : {"placement.decisions", "placement.switches", "placement.explorations",
                          "placement.store_vetoes", "placement.regret"}) {
      EXPECT_GE(cell_metric(label, m), 0.0) << label;
    }
    for (int i = 1; i <= 12; ++i) {
      const std::string tick = label + "/t=" + std::to_string(i) + "of12";
      EXPECT_GE(cell_metric(tick, "placement.regret"), 0.0) << tick;
    }
  }
  EXPECT_GT(cell_metric("uplink_flap/learned", "placement.store_vetoes"), 0.0)
      << "the flap scenario must exercise the store veto";
}

}  // namespace
