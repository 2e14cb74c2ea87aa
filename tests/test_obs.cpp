// Observability layer unit tests: log-linear histogram bucket math and
// quantiles (checked against an exact oracle), the counter registry, and
// span parent/child bookkeeping on the in-memory tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulation.hpp"

namespace c4h::obs {
namespace {

// --- LogHistogram: bucket boundaries ---------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  // Values 0–63 each have their own bucket; above, each power of two splits
  // into 32 sub-buckets: [64, 66) is bucket 64, [1024, 1056) bucket 192.
  EXPECT_EQ(LogHistogram::bucket_index(0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1), 1);
  EXPECT_EQ(LogHistogram::bucket_index(63), 63);
  EXPECT_EQ(LogHistogram::bucket_index(64), 64);
  EXPECT_EQ(LogHistogram::bucket_index(65), 64);
  EXPECT_EQ(LogHistogram::bucket_index(66), 65);
  EXPECT_EQ(LogHistogram::bucket_index(127), 95);
  EXPECT_EQ(LogHistogram::bucket_index(128), 96);
  EXPECT_EQ(LogHistogram::bucket_index(1023), 191);
  EXPECT_EQ(LogHistogram::bucket_index(1024), 192);
  EXPECT_EQ(LogHistogram::bucket_index(std::numeric_limits<std::uint64_t>::max()), 1919);
  EXPECT_EQ(LogHistogram::kBuckets, 1920);
}

TEST(LogHistogram, BucketLowIsInclusiveLowerBound) {
  EXPECT_EQ(LogHistogram::bucket_low(0), 0u);
  for (int i = 1; i < LogHistogram::kBuckets; ++i) {
    const std::uint64_t low = LogHistogram::bucket_low(i);
    EXPECT_EQ(LogHistogram::bucket_index(low), i) << "bucket " << i;
    if (i > 1) {
      EXPECT_EQ(LogHistogram::bucket_index(low - 1), i - 1) << "bucket " << i;
    }
  }
}

TEST(LogHistogram, RecordCountsAndSums) {
  LogHistogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket(0), 1u);  // the 0
  EXPECT_EQ(h.bucket(1), 1u);  // the 1
  EXPECT_EQ(h.bucket(5), 2u);  // the two 5s
  EXPECT_DOUBLE_EQ(h.mean(), 11.0 / 4.0);
}

// --- LogHistogram: quantiles -------------------------------------------------

TEST(LogHistogram, QuantileEmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.quantile(50), 0u);
  EXPECT_EQ(h.quantile(99), 0u);
}

TEST(LogHistogram, QuantileNearestRank) {
  LogHistogram h;
  // 90 values of 100 and 10 of 1500: p50/p90 land in 100's sub-bucket
  // [100, 102), p95/p99 in 1500's [1472, 1504). Quantiles report sub-bucket
  // lower bounds.
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(1500);
  EXPECT_EQ(h.quantile(50), 100u);
  EXPECT_EQ(h.quantile(90), 100u);
  EXPECT_EQ(h.quantile(95), 1472u);
  EXPECT_EQ(h.quantile(99), 1472u);
  EXPECT_EQ(h.quantile(0), 100u);  // lowest recorded value's bucket
  EXPECT_EQ(h.quantile(100), 1472u);
}

TEST(LogHistogram, QuantileSingleValue) {
  LogHistogram h;
  h.record(1000);  // sub-bucket [992, 1008)
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.quantile(p), 992u) << "p=" << p;
  }
}

// --- LogHistogram: merge -----------------------------------------------------

TEST(LogHistogram, MergeAccumulates) {
  LogHistogram a, b;
  a.record(10);
  a.record(20);
  b.record(3000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 3030u);
  EXPECT_EQ(a.quantile(99), 2944u);  // 3000's sub-bucket [2944, 3008)
  // The source is untouched.
  EXPECT_EQ(b.count(), 1u);
}

// --- LogHistogram: accuracy against an exact oracle --------------------------

// One seeded sample set: lognormal latencies at several scales, uniform
// values, point masses, values below 64, and values near 2^63.
std::vector<std::uint64_t> sample_set(int set) {
  Rng rng{0x0A11CE00u + static_cast<std::uint64_t>(set)};
  const std::size_t n = 1 + rng.below(2000);
  constexpr double kTwo63 = 9223372036854775808.0;
  std::vector<std::uint64_t> xs;
  xs.reserve(n);
  const double mu = 2.0 + 3.0 * static_cast<double>(set % 8);  // e^2 .. e^23 ns
  const std::uint64_t mass = 64 + rng.below(1u << 30);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    switch (set % 5) {
      case 0: v = rng.lognormal(mu, 1.5); break;
      case 1: v = rng.uniform(0.0, 1e9); break;
      case 2: v = static_cast<double>(rng.chance(0.7) ? mass : 3 * mass); break;
      case 3: v = static_cast<double>(rng.below(64)); break;
      case 4: v = kTwo63 * rng.uniform(0.9, 1.9); break;  // below 2^64
    }
    xs.push_back(static_cast<std::uint64_t>(v));
  }
  return xs;
}

LogHistogram record_all(const std::vector<std::uint64_t>& xs) {
  LogHistogram h;
  for (const std::uint64_t x : xs) h.record(x);
  return h;
}

bool same_histogram(const LogHistogram& a, const LogHistogram& b) {
  if (a.count() != b.count() || a.sum() != b.sum()) return false;
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    if (a.bucket(i) != b.bucket(i)) return false;
  }
  return true;
}

// The property test: 200 seeded sample sets against a sorted nearest-rank
// oracle, merge against recording directly, and every bucket's bounds.
TEST(LogHistogram, AgreesWithExactOracle) {
  constexpr int kSets = 200;
  for (int set = 0; set < kSets; ++set) {
    std::vector<std::uint64_t> xs = sample_set(set);
    const LogHistogram h = record_all(xs);
    std::sort(xs.begin(), xs.end());
    for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      // Nearest rank: the ceil(p/100 · n)-th smallest value, at least the 1st.
      const double want_rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
      const std::size_t rank = std::max<std::size_t>(1, static_cast<std::size_t>(want_rank));
      const std::uint64_t exact = xs[rank - 1];
      const std::uint64_t q = h.quantile(p);
      if (exact < 64) {
        EXPECT_EQ(q, exact) << "set " << set << " p=" << p;
        continue;
      }
      // exact · 31/32 < q ≤ exact, in 128-bit arithmetic to stay exact near 2^64.
      EXPECT_LE(q, exact) << "set " << set << " p=" << p;
      EXPECT_GT(static_cast<unsigned __int128>(q) * 32, static_cast<unsigned __int128>(exact) * 31)
          << "set " << set << " p=" << p << ": " << q << " vs exact " << exact;
    }
  }

  // Merging two sets equals recording both.
  for (int set = 0; set + 1 < kSets; set += 2) {
    const std::vector<std::uint64_t> a = sample_set(set);
    const std::vector<std::uint64_t> b = sample_set(set + 1);
    std::vector<std::uint64_t> both = a;
    both.insert(both.end(), b.begin(), b.end());
    LogHistogram merged = record_all(a);
    merged.merge(record_all(b));
    EXPECT_TRUE(same_histogram(merged, record_all(both))) << "sets " << set << "+" << set + 1;
  }

  // bucket_low and bucket_index round-trip over every bucket, at both ends.
  std::uint64_t prev_low = 0;
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    const std::uint64_t low = LogHistogram::bucket_low(i);
    EXPECT_EQ(LogHistogram::bucket_index(low), i);
    if (i > 0) {
      EXPECT_GT(low, prev_low) << "bucket " << i;
    }
    const std::uint64_t high = i + 1 < LogHistogram::kBuckets
                                   ? LogHistogram::bucket_low(i + 1) - 1
                                   : std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(LogHistogram::bucket_index(high), i) << "bucket " << i;
    if (i < 64) {
      EXPECT_EQ(high, low) << "bucket " << i;
    } else {
      // Every value of the bucket is less than 1/32 above its low.
      EXPECT_LT(static_cast<unsigned __int128>(high - low) * 32, low) << "bucket " << i;
    }
    prev_low = low;
  }
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, CounterAndGaugePointersAreStable) {
  Registry reg;
  Counter& c = reg.counter("c4h.test.op.count");
  c.add(2);
  // Registering more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) reg.counter("c4h.test.filler." + std::to_string(i));
  Counter& again = reg.counter("c4h.test.op.count");
  EXPECT_EQ(&c, &again);
  EXPECT_EQ(c.value(), 2u);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 101u);
  EXPECT_EQ(snap.counters.at("c4h.test.op.count"), 2u);
}

// --- Tracer: span nesting ----------------------------------------------------

TEST(Tracer, ParentChildNesting) {
  sim::Simulation sim{1};
  Tracer tr{sim, 1};
  tr.set_enabled(true);

  Ctx root_ctx{&tr, 0};
  ScopedSpan root(root_ctx, "op");
  {
    ScopedSpan child(root.ctx(), "child-a");
    ScopedSpan grand(child.ctx(), "leaf");
  }
  { ScopedSpan child(root.ctx(), "child-b"); }
  root.end();

  ASSERT_EQ(tr.size(), 4u);
  const auto roots = tr.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "op");

  const auto kids = tr.children(roots[0]->id);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0]->name, "child-a");
  EXPECT_EQ(kids[1]->name, "child-b");

  const auto grandkids = tr.children(kids[0]->id);
  ASSERT_EQ(grandkids.size(), 1u);
  EXPECT_EQ(grandkids[0]->name, "leaf");

  EXPECT_EQ(tr.depth_below(roots[0]->id), 2);
  EXPECT_EQ(tr.count_in_subtree(roots[0]->id, "leaf"), 1);
}

TEST(Tracer, NullContextRecordsNothing) {
  sim::Simulation sim{1};
  Tracer tr{sim, 1};
  // A default (null) context must make every recording call a no-op.
  ScopedSpan sp(Ctx{}, "ghost");
  sp.attr("k", "v");
  sp.set_error("boom");
  sp.end();
  EXPECT_EQ(tr.size(), 0u);
}

TEST(Tracer, ErrorStatusAndNote) {
  sim::Simulation sim{1};
  Tracer tr{sim, 1};
  tr.set_enabled(true);
  {
    ScopedSpan sp(Ctx{&tr, 0}, "failing");
    sp.set_error("not found");
  }
  const Span* s = tr.find_by_name("failing");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->status, SpanStatus::error);
  EXPECT_EQ(s->note, "not found");
  EXPECT_TRUE(s->finished);
}

TEST(Tracer, SpanTimestampsComeFromSimClock) {
  sim::Simulation sim{1};
  Tracer tr{sim, 1};
  tr.set_enabled(true);
  sim.schedule(milliseconds(10), [&tr] {
    ScopedSpan sp(Ctx{&tr, 0}, "timed");
    sp.end();
  });
  sim.run();
  const Span* s = tr.find_by_name("timed");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->start, milliseconds(10));
  EXPECT_EQ(s->end, milliseconds(10));
}

TEST(Tracer, RunIdDerivedFromSeed) {
  sim::Simulation sim{1};
  Tracer a{sim, 7};
  Tracer b{sim, 7};
  Tracer c{sim, 8};
  EXPECT_EQ(a.run_id(), b.run_id());
  EXPECT_NE(a.run_id(), c.run_id());
}

TEST(Tracer, SumInSubtreeExcludesOtherRoots) {
  sim::Simulation sim{1};
  Tracer tr{sim, 1};
  tr.set_enabled(true);

  // Two separate roots each with a "net.msg" child; the per-root sum must
  // not leak across trees.
  SpanId r1 = tr.begin("op", 0);
  sim.schedule(milliseconds(1), [] {});
  SpanId m1 = tr.begin("net.msg", r1);
  tr.end(m1, SpanStatus::ok, "");
  tr.end(r1, SpanStatus::ok, "");

  SpanId r2 = tr.begin("op", 0);
  SpanId m2 = tr.begin("net.msg", r2);
  tr.end(m2, SpanStatus::ok, "");
  tr.end(r2, SpanStatus::ok, "");

  EXPECT_EQ(tr.count_in_subtree(r1, "net.msg"), 1);
  EXPECT_EQ(tr.count_in_subtree(r2, "net.msg"), 1);
}

}  // namespace
}  // namespace c4h::obs
