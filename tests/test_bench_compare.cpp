// End-to-end tests for tools/bench-compare exit codes: a fresh artifact with
// no baseline file must not be silently waved through (exit 3 + one-line
// summary), a drifting value or a changed row set fails (exit 1, naming the
// row), an artifact that does not parse or repeats a row is an error (exit
// 2), and a matching artifact is clean (exit 0).
//
// The binary path is injected by CMake as C4H_BENCH_COMPARE_BIN.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>

namespace {

struct CompareRun {
  int exit_code;
  std::string output;

  bool contains(const std::string& needle) const {
    return output.find(needle) != std::string::npos;
  }
};

CompareRun compare(const std::string& args) {
  const std::string cmd = std::string(C4H_BENCH_COMPARE_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  CompareRun run{-1, {}};
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string row_json(const std::string& metric, double value) {
  return "{\"label\":\"n=8\",\"metric\":\"" + metric + "\",\"value\":" +
         std::to_string(value) + ",\"unit\":\"ms\"}";
}

// A tiny valid c4h-bench-v1 artifact with a single simulated row, plus an
// optional second row `extra_metric`.
std::string artifact_json(const std::string& bench, double value,
                          const std::string& extra_metric = "") {
  std::string series = row_json("fetch_ms", value);
  if (!extra_metric.empty()) series.append(",").append(row_json(extra_metric, 1.0));
  return "{\"schema\":\"c4h-bench-v1\",\"bench\":\"" + bench +
         "\",\"seed\":42,\"series\":[" + series + "]}";
}

// Scratch layout: <tmp>/<name>/{baselines/,fresh/}. Returns the root.
std::string make_scratch(const std::string& name) {
  const std::string root = testing::TempDir() + name;
  ::mkdir(root.c_str(), 0755);
  ::mkdir((root + "/baselines").c_str(), 0755);
  ::mkdir((root + "/fresh").c_str(), 0755);
  return root;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

}  // namespace

TEST(BenchCompare, MatchingBaselineIsClean) {
  const std::string root = make_scratch("bc_clean");
  write_file(root + "/baselines/BENCH_demo.json", artifact_json("demo", 12.5));
  write_file(root + "/fresh/BENCH_demo.json", artifact_json("demo", 12.5));
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("ok")) << r.output;
}

TEST(BenchCompare, SimulatedDriftFails) {
  const std::string root = make_scratch("bc_drift");
  write_file(root + "/baselines/BENCH_demo.json", artifact_json("demo", 12.5));
  write_file(root + "/fresh/BENCH_demo.json", artifact_json("demo", 13.0));
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("DRIFT")) << r.output;
}

TEST(BenchCompare, NewRowIsDrift) {
  // Baselines are the artifacts of the exact invocations CI runs, so a row
  // with no baseline counterpart is a change to rebaseline deliberately.
  const std::string root = make_scratch("bc_new_row");
  write_file(root + "/baselines/BENCH_demo.json", artifact_json("demo", 12.5));
  write_file(root + "/fresh/BENCH_demo.json", artifact_json("demo", 12.5, "store_ms"));
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("new row (no baseline): n=8 / store_ms")) << r.output;
  EXPECT_TRUE(r.contains("1 fresh-only")) << r.output;
}

TEST(BenchCompare, VanishedRowIsDrift) {
  // A bench that silently stops emitting a row must not stay green.
  const std::string root = make_scratch("bc_vanished_row");
  write_file(root + "/baselines/BENCH_demo.json", artifact_json("demo", 12.5, "store_ms"));
  write_file(root + "/fresh/BENCH_demo.json", artifact_json("demo", 12.5));
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("vanished row (not in fresh artifact): n=8 / store_ms")) << r.output;
  EXPECT_TRUE(r.contains("1 baseline-only")) << r.output;
}

TEST(BenchCompare, MissingBaselineIsADistinctFailure) {
  // The regression this gate exists for: a brand-new bench with no baseline
  // used to print "skipped" and exit 0, so CI never noticed it was ungated.
  const std::string root = make_scratch("bc_missing");
  write_file(root + "/fresh/BENCH_newbench.json", artifact_json("newbench", 1.0));
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_newbench.json");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_TRUE(r.contains("MISSING baseline (BENCH_newbench.json)")) << r.output;
  EXPECT_TRUE(r.contains("1 artifact(s) with no baseline")) << r.output;
}

TEST(BenchCompare, DriftOutranksMissingBaseline) {
  // When one artifact drifts and another is unbaselined, the drift exit code
  // wins (it is the more actionable failure), but both are reported.
  const std::string root = make_scratch("bc_both");
  write_file(root + "/baselines/BENCH_demo.json", artifact_json("demo", 12.5));
  write_file(root + "/fresh/BENCH_demo.json", artifact_json("demo", 99.0));
  write_file(root + "/fresh/BENCH_newbench.json", artifact_json("newbench", 1.0));
  const CompareRun r = compare("--baseline " + root + "/baselines " + root +
                               "/fresh/BENCH_demo.json " + root + "/fresh/BENCH_newbench.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("DRIFT")) << r.output;
  EXPECT_TRUE(r.contains("MISSING baseline (BENCH_newbench.json)")) << r.output;
}

TEST(BenchCompare, MalformedFreshArtifactIsAnIoError) {
  const std::string root = make_scratch("bc_malformed");
  write_file(root + "/fresh/BENCH_demo.json", "{ not json");
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(BenchCompare, DuplicateRowIsMalformed) {
  // Keeping only one of two same-key rows would leave the other unchecked:
  // 99 then 12.5 would pass against a baseline of 12.5.
  const std::string root = make_scratch("bc_duplicate_row");
  write_file(root + "/baselines/BENCH_demo.json", artifact_json("demo", 12.5));
  write_file(root + "/fresh/BENCH_demo.json",
             "{\"schema\":\"c4h-bench-v1\",\"bench\":\"demo\",\"seed\":42,\"series\":[" +
                 row_json("fetch_ms", 99.0) + "," + row_json("fetch_ms", 12.5) + "]}");
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(r.contains("duplicate series row: n=8 / fetch_ms")) << r.output;
}

TEST(BenchCompare, MalformedBaselineIsAParseError) {
  // A baseline that exists but does not parse is broken, not missing: it
  // must not read as a new bench waiting for its first baseline.
  const std::string root = make_scratch("bc_malformed_baseline");
  write_file(root + "/baselines/BENCH_demo.json", "{ not json");
  write_file(root + "/fresh/BENCH_demo.json", artifact_json("demo", 12.5));
  const CompareRun r =
      compare("--baseline " + root + "/baselines " + root + "/fresh/BENCH_demo.json");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(r.contains("baselines/BENCH_demo.json: ")) << r.output;
  EXPECT_FALSE(r.contains("MISSING")) << r.output;
}
