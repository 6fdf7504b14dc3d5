// Unit tests for zipper::common — RNG determinism, streaming statistics,
// checksums, units.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <random>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace zc = zipper::common;

TEST(Rng, SameSeedSameStream) {
  zc::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  zc::Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  zc::Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  zc::Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  zc::Xoshiro256 r(123);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BelowStaysBelow) {
  zc::Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Stats, EmptyIsZero) {
  zc::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, SingleValue) {
  zc::RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(Stats, MatchesClosedForm) {
  // Var of 1..n is (n^2-1)/12.
  zc::RunningStats s;
  const int n = 1001;
  for (int i = 1; i <= n; ++i) s.add(i);
  EXPECT_NEAR(s.mean(), (n + 1) / 2.0, 1e-9);
  EXPECT_NEAR(s.variance(), (static_cast<double>(n) * n - 1) / 12.0, 1e-6);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), static_cast<double>(n));
}

TEST(Stats, MergeEqualsSequential) {
  zc::Xoshiro256 r(5);
  zc::RunningStats whole, left, right;
  for (int i = 0; i < 5000; ++i) {
    const double x = r.uniform(-10, 10);
    whole.add(x);
    (i < 2500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmpty) {
  zc::RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(zc::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(zc::percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(zc::percentile(v, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(zc::percentile(v, 25), 2.5);
}

TEST(Checksum, EmptyIsOffset) {
  EXPECT_EQ(zc::fnv1a({}), zc::kFnvOffset);
}

TEST(Checksum, KnownVector) {
  // FNV-1a of "a" = 0xaf63dc4c8601ec8c.
  const std::byte b{'a'};
  EXPECT_EQ(zc::fnv1a(std::span<const std::byte>(&b, 1)), 0xAF63DC4C8601EC8Cull);
}

TEST(Checksum, OrderSensitive) {
  std::array<std::byte, 2> ab{std::byte{'a'}, std::byte{'b'}};
  std::array<std::byte, 2> ba{std::byte{'b'}, std::byte{'a'}};
  EXPECT_NE(zc::fnv1a(ab), zc::fnv1a(ba));
}

namespace {

std::span<const std::byte> text(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

// XXH64 transcribed from the specification one step at a time, with
// little-endian words assembled byte by byte: the optimized version in
// common/checksum.hpp must agree with it on every stripe/tail split.
std::uint64_t xxh64_spec(std::span<const std::byte> in, std::uint64_t seed) {
  constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t P2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t P3 = 0x165667B19E3779F9ull;
  constexpr std::uint64_t P4 = 0x85EBCA77C2B2AE63ull;
  constexpr std::uint64_t P5 = 0x27D4EB2F165667C5ull;
  auto word = [&](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i) {
      v = (v << 8) |
          static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)]);
    }
    return v;
  };
  auto round = [&](std::uint64_t acc, std::uint64_t lane) {
    return std::rotl(acc + lane * P2, 31) * P1;
  };
  std::size_t i = 0;
  std::uint64_t h = seed + P5;
  if (in.size() >= 32) {
    std::uint64_t v[4] = {seed + P1 + P2, seed + P2, seed, seed - P1};
    for (; i + 32 <= in.size(); i += 32) {
      for (int l = 0; l < 4; ++l) {
        v[l] = round(v[l], word(i + 8 * static_cast<std::size_t>(l), 8));
      }
    }
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (std::uint64_t lane : v) h = (h ^ round(0, lane)) * P1 + P4;
  }
  h += in.size();
  for (; i + 8 <= in.size(); i += 8) {
    h = std::rotl(h ^ round(0, word(i, 8)), 27) * P1 + P4;
  }
  if (i + 4 <= in.size()) {
    h = std::rotl(h ^ (word(i, 4) * P1), 23) * P2 + P3;
    i += 4;
  }
  for (; i < in.size(); ++i) h = std::rotl(h ^ (word(i, 1) * P5), 11) * P1;
  h = (h ^ (h >> 33)) * P2;
  h = (h ^ (h >> 29)) * P3;
  return h ^ (h >> 32);
}

}  // namespace

TEST(Checksum, Xxh64ReferenceVectors) {
  EXPECT_EQ(zc::xxh64({}), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(zc::xxh64(text("abc")), 0x44BC2CF5AD770999ull);
  // Published python-xxhash examples: a 39-byte input (one stripe plus
  // 8/4/1-byte tails) and a non-zero seed.
  EXPECT_EQ(zc::xxh64(text("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ull);
  EXPECT_EQ(zc::xxh64(text("xxhash")), 0x32DD38952C4BC720ull);
  EXPECT_EQ(zc::xxh64(text("xxhash"), 20141025), 0xB559B98D844E0635ull);
}

TEST(Checksum, Xxh64EveryLengthMatchesSpecification) {
  std::vector<std::byte> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((i * 151 + 29) & 0xFF);
  }
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    const std::span<const std::byte> in(buf.data(), len);
    for (std::uint64_t seed : {0ull, 0x9E3779B97F4A7C15ull}) {
      EXPECT_EQ(zc::xxh64(in, seed), xxh64_spec(in, seed))
          << "len " << len << " seed " << seed;
    }
    seen.insert(zc::xxh64(in));
  }
  EXPECT_EQ(seen.size(), buf.size() + 1) << "two prefix lengths collided";
}

TEST(Checksum, Xxh64SingleBitFlipAnywhereIn64KiBChangesSum) {
  std::vector<std::byte> buf(64 * 1024);
  zc::Xoshiro256 rng(7);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  const std::uint64_t clean = zc::xxh64(buf);
  // Every byte, with the flipped bit cycling through all eight positions.
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const std::byte mask{static_cast<unsigned char>(1u << (i % 8))};
    buf[i] ^= mask;
    ASSERT_NE(zc::xxh64(buf), clean) << "flip at byte " << i;
    buf[i] ^= mask;
  }
}

TEST(Units, Sizes) {
  EXPECT_EQ(zc::KiB, 1024u);
  EXPECT_EQ(zc::MiB, 1024u * 1024u);
  EXPECT_EQ(zc::GiB, 1024ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(zc::bytes_per_ns(12.5e9), 12.5);
}
