// End-to-end tests for tools/c4h-analyze: every rule (A1–A6 coroutine
// lifetime, D1–D3 determinism taint, H1 header hygiene) has a seeded
// true-positive fixture that must produce exactly the expected findings and a
// near-miss true-negative fixture that must come up clean. On top of the
// per-rule pairs: cross-file symbol-index resolution, suppression comments,
// --rules filtering, the baseline workflow (write, match, stale-entry warning,
// new-finding failure), and the invariant CI enforces — the real tree
// analyzes clean against the checked-in baseline.
//
// The Lint suite keeps the contracts of the retired token-level linter's rules
// R1–R5 on the r*_ fixtures: R1 is now A5, R2 is D1, R3 is D3, R5 is H1, and
// R4's bare discards are compiler errors (-Werror=unused-result) with A6
// catching the (void)-cast task the compiler lets through.
//
// The analyzer binary, compiler and directories are injected by CMake as
// compile definitions (C4H_ANALYZE_BIN, C4H_CXX_COMPILER, C4H_ANALYZE_FIXDIR,
// C4H_SOURCE_DIR).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct AnalyzeRun {
  int exit_code;
  std::string output;  // stdout + stderr interleaved

  bool contains(const std::string& needle) const {
    return output.find(needle) != std::string::npos;
  }
  int count(const std::string& needle) const {
    int n = 0;
    for (std::size_t pos = output.find(needle); pos != std::string::npos;
         pos = output.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  }
};

// Runs `cmd` (fixture names and flags only, so already shell-safe) and
// captures combined output plus exit status.
AnalyzeRun run(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  AnalyzeRun r{-1, {}};
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

AnalyzeRun analyze(const std::string& args) {
  return run(std::string(C4H_ANALYZE_BIN) + " " + args);
}

// Compiles `file` the way the build does for discarded results.
AnalyzeRun compile(const std::string& file) {
  return run(std::string(C4H_CXX_COMPILER) +
             " -std=c++20 -fsyntax-only -Werror=unused-result -I" + C4H_SOURCE_DIR + " " + file);
}

std::string fixture(const std::string& name) {
  return std::string(C4H_ANALYZE_FIXDIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

}  // namespace

// ---------------------------------------------------------------- family A

TEST(Analyze, A1BadFlagsTemporariesBoundToSpawnedRefParams) {
  const AnalyzeRun r = analyze(fixture("a1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a1_bad.cpp:21: [A1] temporary bound to reference parameter 1"))
      << r.output;
  EXPECT_TRUE(r.contains("a1_bad.cpp:22: [A1]")) << r.output;
  EXPECT_TRUE(r.contains("a1_bad.cpp:29: [A1] temporary bound to reference parameter 1 "
                         "of spawned coroutine lambda"))
      << r.output;
  EXPECT_EQ(r.count("[A1]"), 3) << r.output;
}

TEST(Analyze, A1GoodLvaluesMovesAndRunTaskAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("a1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 finding(s)")) << r.output;
}

TEST(Analyze, A1CrossFileResolvesDeclarationFromHeader) {
  // The spawned callee is only *declared* in a1_decl.hpp; the ref-param shape
  // must come from the symbol index, not the call site's file.
  const AnalyzeRun r = analyze(fixture("a1_decl.hpp") + " " + fixture("a1_cross_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains(
      "a1_cross_bad.cpp:9: [A1] temporary bound to reference parameter 1 of spawned "
      "drain_session"))
      << r.output;
  EXPECT_EQ(r.count("[A1]"), 1) << r.output;
}

TEST(Analyze, A2BadFlagsCapturingCoroutineLambdasInDetachedSpawn) {
  const AnalyzeRun r = analyze(fixture("a2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a2_bad.cpp:11: [A2] coroutine lambda with by-reference captures"))
      << r.output;
  EXPECT_TRUE(r.contains("a2_bad.cpp:19: [A2] coroutine lambda with by-value captures"))
      << r.output;
  EXPECT_TRUE(r.contains("a2_bad.cpp:29: [A2] coroutine lambda with `this` captures"))
      << r.output;
  EXPECT_EQ(r.count("[A2]"), 3) << r.output;
}

TEST(Analyze, A2GoodParameterPassingAndSyncDriversAnalyzeClean) {
  // Captures are fine in run_task (synchronous) and in non-coroutine lambdas;
  // the tree's param-passing spawn idiom is the blessed pattern.
  const AnalyzeRun r = analyze(fixture("a2_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, A3BadFlagsIteratorsHeldAcrossAwait) {
  const AnalyzeRun r = analyze(fixture("a3_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a3_bad.cpp:18: [A3] iterator 'it' into 'table' used across co_await"))
      << r.output;
  EXPECT_TRUE(
      r.contains("a3_bad.cpp:24: [A3] iterator 'cursor' into 'table' used across co_await"))
      << r.output;
  EXPECT_EQ(r.count("[A3]"), 2) << r.output;
}

TEST(Analyze, A3GoodPreAwaitUseRefindAndEarlyExitBranchAnalyzeClean) {
  // Four near misses: consumed before the await, re-acquired after it, used
  // inside the awaited expression, and an await on an early-co_return branch.
  const AnalyzeRun r = analyze(fixture("a3_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, A4BadFlagsDetachedTaskOnFunctionLocalObject) {
  const AnalyzeRun r = analyze(fixture("a4_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a4_bad.cpp:22: [A4] detached task 'p.sample_loop(...)' keeps "
                         "`this` of a function-local object"))
      << r.output;
  EXPECT_EQ(r.count("[A4]"), 1) << r.output;
}

TEST(Analyze, A4GoodMemberLifetimeAndRunTaskAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("a4_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------- family D

TEST(Analyze, D1BadFlagsWallClockDirectPropagatedAndCrossFunction) {
  const AnalyzeRun r = analyze(fixture("d1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d1_bad.cpp:20: [D1]")) << r.output;  // clock -> schedule
  EXPECT_TRUE(r.contains("d1_bad.cpp:26: [D1]")) << r.output;  // via tainted local
  EXPECT_TRUE(r.contains("d1_bad.cpp:30: [D1]")) << r.output;  // via jitter_ms() return
  EXPECT_TRUE(r.contains("d1_bad.cpp:34: [D1] wall-clock/entropy value reaches 'record'"))
      << r.output;
  EXPECT_TRUE(r.contains("d1_bad.cpp:39: [D1]")) << r.output;  // default_random_engine
  EXPECT_EQ(r.count("[D1]"), 5) << r.output;
}

TEST(Analyze, D1GoodVirtualClockAndSeededRngAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("d1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, D2BadFlagsPointerIdentityIntoStateMetricsAndSchedule) {
  const AnalyzeRun r = analyze(fixture("d2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d2_bad.cpp:18: [D2] pointer-identity value reaches 'push_back'"))
      << r.output;
  EXPECT_TRUE(r.contains("d2_bad.cpp:23: [D2] pointer-identity value reaches 'record'"))
      << r.output;
  EXPECT_TRUE(r.contains("d2_bad.cpp:28: [D2] pointer-identity value reaches 'schedule'"))
      << r.output;
  EXPECT_EQ(r.count("[D2]"), 3) << r.output;
}

TEST(Analyze, D2GoodStableIdsAndValueHashesAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("d2_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, D3BadFlagsOrderSensitiveBodiesOverUnorderedContainers) {
  const AnalyzeRun r = analyze(fixture("d3_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d3_bad.cpp:16: [D3]")) << r.output;  // push_back
  EXPECT_TRUE(r.contains("d3_bad.cpp:22: [D3]")) << r.output;  // co_await
  EXPECT_TRUE(r.contains("d3_bad.cpp:28: [D3]")) << r.output;  // record
  EXPECT_TRUE(r.contains("d3_bad.cpp:34: [D3]")) << r.output;  // iterator form
  EXPECT_EQ(r.count("[D3]"), 4) << r.output;
}

TEST(Analyze, D3GoodCommutativeSortedViewAndOrderedMapAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("d3_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ------------------------------------------------- suppression & filtering

TEST(Analyze, SuppressionCoversInlineAndCommentLineAboveOnly) {
  const AnalyzeRun r = analyze(fixture("suppress.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("suppress.cpp:25: [D1]")) << r.output;
  EXPECT_EQ(r.count("[D1]"), 1) << r.output;  // the two allow()ed sites stay quiet
}

TEST(Analyze, RulesFilterRestrictsToSelectedRules) {
  // d1_bad has only D1 findings, so asking for A1 alone must come up empty.
  const AnalyzeRun none = analyze("--rules=A1 " + fixture("d1_bad.cpp"));
  EXPECT_EQ(none.exit_code, 0) << none.output;
  const AnalyzeRun d1 = analyze("--rules=D1 " + fixture("d1_bad.cpp"));
  EXPECT_EQ(d1.exit_code, 1) << d1.output;
  EXPECT_EQ(d1.count("[D1]"), 5) << d1.output;
}

TEST(Analyze, UnreadablePathIsAUsageError) {
  const AnalyzeRun r = analyze(fixture("does_not_exist.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// ------------------------------------------------------- baseline workflow

TEST(Analyze, WriteBaselineThenRecheckAcceptsKnownFindings) {
  const std::string base = temp_path("analyze_baseline_roundtrip.json");
  const AnalyzeRun wrote = analyze("--write-baseline=" + base + " " + fixture("d1_bad.cpp"));
  EXPECT_EQ(wrote.exit_code, 0) << wrote.output;
  EXPECT_TRUE(wrote.contains("wrote 5 finding(s)")) << wrote.output;

  const AnalyzeRun check = analyze("--baseline=" + base + " " + fixture("d1_bad.cpp"));
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_TRUE(check.contains("5 finding(s) (5 baselined, 0 new)")) << check.output;
  std::remove(base.c_str());
}

TEST(Analyze, NewFindingOnTopOfBaselineStillFails) {
  // Baseline covers d1_bad only; adding d2_bad to the run surfaces its three
  // findings as new and the analyzer must fail.
  const std::string base = temp_path("analyze_baseline_partial.json");
  const AnalyzeRun wrote = analyze("--write-baseline=" + base + " " + fixture("d1_bad.cpp"));
  ASSERT_EQ(wrote.exit_code, 0) << wrote.output;

  const AnalyzeRun r =
      analyze("--baseline=" + base + " " + fixture("d1_bad.cpp") + " " + fixture("d2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("8 finding(s) (5 baselined, 3 new)")) << r.output;
  EXPECT_EQ(r.count("[D2]"), 3) << r.output;
  EXPECT_EQ(r.count("[D1]"), 0) << r.output;  // baselined findings stay quiet
  std::remove(base.c_str());
}

TEST(Analyze, StaleBaselineEntryWarnsButDoesNotFail) {
  // Baseline written against d1_bad, then run against the clean d1_good:
  // every entry is stale — warn loudly, exit zero.
  const std::string base = temp_path("analyze_baseline_stale.json");
  const AnalyzeRun wrote = analyze("--write-baseline=" + base + " " + fixture("d1_bad.cpp"));
  ASSERT_EQ(wrote.exit_code, 0) << wrote.output;

  const AnalyzeRun r = analyze("--baseline=" + base + " " + fixture("d1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.count("warning: stale baseline entry"), 5) << r.output;
  std::remove(base.c_str());
}

TEST(Analyze, MalformedBaselineIsAnIoError) {
  const std::string base = temp_path("analyze_baseline_malformed.json");
  std::ofstream(base) << "{ not json";
  const AnalyzeRun r = analyze("--baseline=" + base + " " + fixture("d1_good.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  std::remove(base.c_str());
}

// ------------------------------------------------------------ tree hygiene

TEST(Analyze, SourceTreeAnalyzesCleanAgainstCheckedInBaseline) {
  // The contract this PR establishes: the full tree carries no findings
  // beyond the checked-in baseline. CI enforces the same invariant.
  const std::string root(C4H_SOURCE_DIR);
  const AnalyzeRun r =
      analyze("--baseline=" + root + "/tools/c4h-analyze/baseline.json " + root + "/src " +
              root + "/tests " + root + "/bench " + root + "/examples");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 new)")) << r.output;
}

// ------------------------------------------ the retired linter's contracts

TEST(Lint, R1BadFlagsLoopHeaderAndCompoundAwaits) {
  const AnalyzeRun r = analyze(fixture("r1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r1_bad.cpp:8: [A5] co_await of a temporary task inside a loop header"))
      << r.output;
  EXPECT_TRUE(r.contains(
      "r1_bad.cpp:9: [A5] co_await of a temporary task inside a compound subexpression"))
      << r.output;
  EXPECT_TRUE(r.contains("2 finding(s) (0 baselined, 2 new)")) << r.output;
}

TEST(Lint, R1GoodNamedBindingsLintClean) {
  const AnalyzeRun r = analyze(fixture("r1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 finding(s)")) << r.output;
}

TEST(Lint, R2BadFlagsWallClockAndEntropy) {
  const AnalyzeRun r = analyze(fixture("r2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r2_bad.cpp:6: [D1] wall-clock/entropy value reaches 'schedule'"))
      << r.output;  // steady_clock
  EXPECT_TRUE(r.contains("r2_bad.cpp:10: [D1] wall-clock/entropy value reaches 'record'"))
      << r.output;  // time()
  EXPECT_TRUE(r.contains("r2_bad.cpp:14: [D1] wall-clock/entropy value reaches 'schedule'"))
      << r.output;  // rand()
  EXPECT_TRUE(r.contains("3 finding(s) (0 baselined, 3 new)")) << r.output;
}

TEST(Lint, R2GoodVirtualClockAndMemberTimeLintClean) {
  const AnalyzeRun r = analyze(fixture("r2_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R3BadFlagsRangeForAndIteratorTraversal) {
  const AnalyzeRun r = analyze(fixture("r3_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r3_bad.cpp:9: [D3] order-sensitive loop body over an unordered"))
      << r.output;
  EXPECT_TRUE(r.contains("r3_bad.cpp:12: [D3] order-sensitive loop body over an unordered"))
      << r.output;
  EXPECT_TRUE(r.contains("2 finding(s) (0 baselined, 2 new)")) << r.output;
}

TEST(Lint, R3GoodSortedSnapshotAndAnnotationLintClean) {
  // Covers the sorted_keys() remedy, a commutative reduction in iterator form
  // (no annotation needed), and a comment-only allow(D3) covering the loop
  // beneath it.
  const AnalyzeRun r = analyze(fixture("r3_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R4BadFlagsDiscardAndUnannotatedLaunder) {
  // The compiler rejects both bare discards; the (void) cast compiles, so A6
  // has to catch the task it leaves unrun.
  const AnalyzeRun cc = compile(fixture("r4_bad.cpp"));
  EXPECT_NE(cc.exit_code, 0) << cc.output;
  EXPECT_TRUE(cc.contains("r4_bad.cpp:11:")) << cc.output;  // Result
  EXPECT_TRUE(cc.contains("r4_bad.cpp:12:")) << cc.output;  // Task
  EXPECT_EQ(cc.count("unused-result]"), 2) << cc.output;

  const AnalyzeRun r = analyze(fixture("r4_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r4_bad.cpp:13: [A6] (void)-cast call to task 'replicate_all' is "
                         "never awaited"))
      << r.output;
  EXPECT_TRUE(r.contains("1 finding(s) (0 baselined, 1 new)")) << r.output;
}

TEST(Lint, R4GoodAssignedAwaitedAndAnnotatedLintClean) {
  const AnalyzeRun cc = compile(fixture("r4_good.cpp"));
  EXPECT_EQ(cc.exit_code, 0) << cc.output;
  const AnalyzeRun r = analyze(fixture("r4_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R5BadFlagsMissingPragmaAndNamespace) {
  const AnalyzeRun r = analyze(fixture("r5_bad.hpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r5_bad.hpp:1: [H1] header is missing #pragma once")) << r.output;
  EXPECT_TRUE(r.contains("r5_bad.hpp:1: [H1] header does not declare anything in namespace c4h"))
      << r.output;
  EXPECT_TRUE(r.contains("2 finding(s) (0 baselined, 2 new)")) << r.output;
}

TEST(Lint, R5GoodHeaderHygieneLintClean) {
  const AnalyzeRun r = analyze(fixture("r5_good.hpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, RulesFilterRestrictsToSelectedRules) {
  // r1_bad has only A5 findings, so asking for D1 alone must come up empty.
  const AnalyzeRun r = analyze("--rules=D1 " + fixture("r1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const AnalyzeRun a5 = analyze("--rules=A5 " + fixture("r1_bad.cpp"));
  EXPECT_EQ(a5.exit_code, 1) << a5.output;
  EXPECT_EQ(a5.count("[A5]"), 2) << a5.output;
}

TEST(Lint, FixableSummaryCountsPerRule) {
  const AnalyzeRun r = analyze(fixture("r5_bad.hpp") + " " + fixture("r1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("c4h-analyze: new findings by rule: A5=2 H1=2")) << r.output;
}

TEST(Lint, UnreadablePathIsAUsageError) {
  // One missing path fails the whole run, even beside readable ones.
  const AnalyzeRun r =
      analyze("--rules=A5,A6,H1 " + fixture("r5_bad.hpp") + " " + fixture("does_not_exist.hpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_FALSE(r.contains("[H1]")) << r.output;
}

TEST(Lint, SourceTreeLintsClean) {
  // The rules that replaced the linter's hold on the whole tree with no
  // baseline and no annotation beyond the in-place allow() comments.
  const std::string root(C4H_SOURCE_DIR);
  const AnalyzeRun r = analyze("--rules=A5,A6,H1,D1,D3 " + root + "/src " + root + "/tests " +
                               root + "/bench " + root + "/examples " + root + "/tools");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 finding(s)")) << r.output;
}
