// Unit tests for the common substrate: SHA-1, keys, serialization, RNG,
// stats, Result.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/key.hpp"
#include "src/common/result.hpp"
#include "src/common/rng.hpp"
#include "src/common/serial.hpp"
#include "src/common/sha1.hpp"
#include "src/common/stats.hpp"
#include "src/common/units.hpp"
#include "src/obs/metrics.hpp"

namespace c4h {
namespace {

std::string hex(const Sha1::Digest& d) {
  static constexpr char k[] = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s += k[b >> 4];
    s += k[b & 0xF];
  }
  return s;
}

// --- SHA-1 (FIPS 180-1 test vectors) ---

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, LongerVector) {
  EXPECT_EQ(hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  Sha1 h;
  for (char c : s) h.update(&c, 1);
  EXPECT_EQ(hex(h.finish()), hex(Sha1::hash(s)));
}

TEST(Sha1, BlockBoundarySizes) {
  // Exercise the padding logic at and around the 64-byte block boundary.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const std::string s(n, 'x');
    Sha1 a;
    a.update(s);
    Sha1 b;
    b.update(s.substr(0, n / 2));
    b.update(s.substr(n / 2));
    EXPECT_EQ(hex(a.finish()), hex(b.finish())) << "n=" << n;
  }
}

TEST(Sha1, KnownAnswersAtPaddingEdges) {
  // Digests of n 'x' bytes from an independent implementation (Python's
  // hashlib): padding that fits one block (55), spills into a second (56,
  // 57, 63), and starts on a block boundary (64, 128).
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1"},
      {56, "901305367c259952f4e7af8323f480d59f81335b"},
      {57, "025ecbd5d70f8fb3c5457cd96bab13fda305dc59"},
      {63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec"},
      {64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163"},
      {65, "78c741ddc482e4cdf8c474a0876347a0905b6233"},
      {119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c"},
      {120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d"},
      {127, "e463484d274607e1897d4099497cbf2aedcf8206"},
      {128, "150fa3fbdc899bd0b8f95a9fb6027f564d953762"},
  };
  for (const auto& [n, digest] : cases) {
    EXPECT_EQ(hex(Sha1::hash(std::string(n, 'x'))), digest) << "n=" << n;
  }
}

// --- Key ---

TEST(Key, FromNameIs40Bits) {
  const Key k = Key::from_name("object-1");
  EXPECT_EQ(k.raw() & ~Key::kMask, 0u);
  EXPECT_EQ(k.to_string().size(), 10u);
}

TEST(Key, Deterministic) {
  EXPECT_EQ(Key::from_name("a"), Key::from_name("a"));
  EXPECT_NE(Key::from_name("a"), Key::from_name("b"));
}

TEST(Key, FromNameMatchesSha1AcrossMemoCollisions) {
  const auto direct = [](std::string_view name) {
    const Sha1::Digest d = Sha1::hash(name);
    std::uint64_t v = 0;
    for (int i = 0; i < 5; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
    return Key{v};
  };
  // Four names per memo slot on average, grouped by the slot they share.
  std::vector<std::vector<std::string>> by_slot(Key::kMemoSlots);
  for (std::size_t i = 0; i < 4 * Key::kMemoSlots; ++i) {
    std::string name = "object-" + std::to_string(i) + ".dat";
    by_slot[std::hash<std::string_view>{}(name) % Key::kMemoSlots].push_back(std::move(name));
  }
  by_slot[std::hash<std::string_view>{}("") % Key::kMemoSlots].push_back("");
  std::size_t shared = 0;
  std::size_t checked = 0;
  std::size_t wrong = 0;
  const auto check = [&](const std::string& name) {
    ++checked;
    if (Key::from_name(name) != direct(name)) ++wrong;
  };
  for (const std::vector<std::string>& names : by_slot) {
    if (names.size() >= 2) ++shared;
    // Each name twice in a row (a hit), then the slot's names interleaved,
    // so every lookup after the first evicts the one before it.
    for (const std::string& n : names) {
      check(n);
      check(n);
    }
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i + 1 < names.size(); ++i) {
        check(names[i]);
        check(names[i + 1]);
        check(names[i]);
      }
    }
  }
  EXPECT_GT(shared, Key::kMemoSlots / 2);
  EXPECT_GT(checked, 8 * Key::kMemoSlots);
  EXPECT_EQ(wrong, 0u);
}

TEST(Key, DigitsRoundTrip) {
  const Key k{0x123456789Aull};
  EXPECT_EQ(k.digit(0), 1u);
  EXPECT_EQ(k.digit(1), 2u);
  EXPECT_EQ(k.digit(9), 0xAu);
  EXPECT_EQ(k.to_string(), "123456789a");
}

TEST(Key, SharedPrefixLen) {
  EXPECT_EQ(Key{0x1234500000ull}.shared_prefix_len(Key{0x1234500000ull}), 10);
  EXPECT_EQ(Key{0x1234500000ull}.shared_prefix_len(Key{0x1234600000ull}), 4);
  EXPECT_EQ(Key{0x1000000000ull}.shared_prefix_len(Key{0x2000000000ull}), 0);
}

TEST(Key, RingDistanceSymmetricAndWraps) {
  const Key a{1};
  const Key b{Key::kMask};  // max key, adjacent to 0 on the ring
  EXPECT_EQ(a.ring_distance(b), b.ring_distance(a));
  EXPECT_EQ(a.ring_distance(b), 2u);
  EXPECT_EQ(Key{0}.ring_distance(Key{Key::kMask}), 1u);
}

TEST(Key, ClockwiseDistance) {
  EXPECT_EQ(Key{10}.clockwise_distance(Key{15}), 5u);
  EXPECT_EQ(Key{15}.clockwise_distance(Key{10}), Key::kMask + 1 - 5);
}

TEST(Key, HashSpreadsAcrossSpace) {
  // Sanity: 1000 distinct names should not collide in 2^40 space and should
  // cover all 16 leading digits.
  std::set<Key> keys;
  std::set<unsigned> first_digits;
  for (int i = 0; i < 1000; ++i) {
    const Key k = Key::from_name("name-" + std::to_string(i));
    keys.insert(k);
    first_digits.insert(k.digit(0));
  }
  EXPECT_EQ(keys.size(), 1000u);
  EXPECT_EQ(first_digits.size(), 16u);
}

// --- Serialization ---

TEST(Serial, RoundTripScalars) {
  Writer w;
  w.write(std::uint32_t{42});
  w.write(std::int64_t{-7});
  w.write(3.5);
  w.write(true);
  w.write(std::string{"hello"});

  Reader r{w.buffer()};
  EXPECT_EQ(*r.read<std::uint32_t>(), 42u);
  EXPECT_EQ(*r.read<std::int64_t>(), -7);
  EXPECT_EQ(*r.read_double(), 3.5);
  EXPECT_TRUE(*r.read_bool());
  EXPECT_EQ(*r.read_string(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(Serial, RoundTripVectorAndBytes) {
  Writer w;
  const std::vector<std::string> v{"a", "bb", "ccc"};
  w.write_vector(v, [](Writer& ww, const std::string& s) { ww.write(s); });
  const Buffer blob{1, 2, 3, 4};
  w.write_bytes(blob);

  Reader r{w.buffer()};
  auto rv = r.read_vector<std::string>([](Reader& rr) { return rr.read_string(); });
  ASSERT_TRUE(rv.ok());
  EXPECT_EQ(*rv, v);
  auto rb = r.read_bytes();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*rb, blob);
}

TEST(Serial, TruncatedBufferFailsGracefully) {
  Writer w;
  w.write(std::string{"hello world"});
  Buffer truncated(w.buffer().begin(), w.buffer().begin() + 6);
  Reader r{truncated};
  auto s = r.read_string();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::io_error);
}

TEST(Serial, EnumRoundTrip) {
  enum class E : std::uint8_t { a = 1, b = 200 };
  Writer w;
  w.write(E::b);
  Reader r{w.buffer()};
  EXPECT_EQ(*r.read<E>(), E::b);
}

// --- Result ---

TEST(Result, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);

  Result<int> err{Errc::not_found, "nope"};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::not_found);
  EXPECT_EQ(err.error().message, "nope");
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok;
  EXPECT_TRUE(ok.ok());
  Result<void> err{Errc::no_capacity};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::no_capacity);
}

// --- RNG ---

TEST(Rng, DeterministicFromSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng r{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng r{11};
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMeanIsCalibrated) {
  Rng r{13};
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.lognormal_mean(5.0, 0.5));
  EXPECT_NEAR(acc.mean(), 5.0, 0.1);
}

TEST(Rng, ZipfIsSkewedAndBounded) {
  Rng r{17};
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[r.zipf(100, 1.0)];
  for (const auto& [k, _] : counts) EXPECT_LT(k, 100u);
  EXPECT_GT(counts[0], counts[50] * 5);  // strong head skew
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{42};
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

// --- Stats ---

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.stddev(), 2.138, 0.001);
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 9.0);
}

// Percentiles come from the one histogram, obs::LogHistogram: nearest rank,
// reported as the lower bound of the sub-bucket holding that rank's value.
TEST(Stats, SamplesPercentiles) {
  obs::LogHistogram h;
  for (std::uint64_t i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.quantile(50), 50u);   // below 64 every value is its own bucket
  EXPECT_EQ(h.quantile(0), 1u);
  EXPECT_EQ(h.quantile(100), 100u);  // [100, 102) starts at the value itself
  EXPECT_EQ(h.quantile(95), 94u);    // rank 95 lies in [94, 96)
}

TEST(Stats, HistogramBuckets) {
  obs::LogHistogram h;
  h.record(0);
  h.record(63);
  h.record(64);
  h.record(65);  // shares [64, 66) with 64
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(63), 1u);
  EXPECT_EQ(h.bucket(64), 2u);
  EXPECT_EQ(h.bucket(obs::LogHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 5u);
}

// --- Units ---

TEST(Units, Conversions) {
  EXPECT_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_EQ(milliseconds(1500), microseconds(1500000));
  EXPECT_EQ(10_MB, Bytes{10} * 1024 * 1024);
}

TEST(Units, TransferTimeRoundsUp) {
  // 1 byte at 3 bytes/sec should take ceil(1/3 s) in integer ns.
  const Duration d = transfer_time(1, 3.0);
  EXPECT_GE(to_seconds(d), 1.0 / 3.0);
  EXPECT_LT(to_seconds(d), 1.0 / 3.0 + 1e-8);
}

TEST(Units, FromSecondsNeverEarly) {
  for (double s : {0.1, 0.123456789, 1e-9, 3.999999}) {
    EXPECT_GE(to_seconds(from_seconds(s)), s - 1e-15);
  }
}

}  // namespace
}  // namespace c4h
