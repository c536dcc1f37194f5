#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <set>

#include "sketch/field.hpp"
#include "sketch/hashing.hpp"

namespace kc::sketch {
namespace {

TEST(Field, AddSubInverse) {
  const std::uint64_t a = kPrime - 2, b = 5;
  EXPECT_EQ(add_mod(a, b), 3u);  // wraps
  EXPECT_EQ(sub_mod(3, 5), kPrime - 2);
  EXPECT_EQ(sub_mod(5, 3), 2u);
}

TEST(Field, MulMatchesSmallCases) {
  EXPECT_EQ(mul_mod(7, 9), 63u);
  EXPECT_EQ(mul_mod(kPrime - 1, kPrime - 1), 1u);  // (−1)² = 1
  EXPECT_EQ(mul_mod(kPrime - 1, 2), kPrime - 2);   // −2
}

TEST(Field, Reduce128EdgeCases) {
  EXPECT_EQ(detail::reduce128(0), 0u);
  EXPECT_EQ(detail::reduce128(kPrime), 0u);
  EXPECT_EQ(detail::reduce128(static_cast<__uint128_t>(kPrime) * 2), 0u);
  EXPECT_EQ(detail::reduce128(static_cast<__uint128_t>(kPrime) + 5), 5u);
}

TEST(Field, PowAndInverse) {
  EXPECT_EQ(pow_mod(2, 10), 1024u);
  EXPECT_EQ(pow_mod(3, 0), 1u);
  for (std::uint64_t a : std::initializer_list<std::uint64_t>{2, 12345, kPrime - 7}) {
    EXPECT_EQ(mul_mod(a, inv_mod(a)), 1u) << a;
  }
}

TEST(Field, FermatHolds) {
  // a^(p−1) = 1 for a ≠ 0.
  EXPECT_EQ(pow_mod(987654321, kPrime - 1), 1u);
}

TEST(Field, EmbedKeyNonZero) {
  EXPECT_EQ(embed_key(0), 1u);
  EXPECT_GT(embed_key(~0ULL), 0u);
}

TEST(Field, SignedMod) {
  EXPECT_EQ(signed_mod(0), 0u);
  EXPECT_EQ(signed_mod(5), 5u);
  EXPECT_EQ(signed_mod(-1), kPrime - 1);
  EXPECT_EQ(signed_mod(static_cast<std::int64_t>(kPrime)), 0u);
  EXPECT_EQ(signed_mod(-static_cast<std::int64_t>(kPrime)), 0u);
  // 2^63 = 4·2^61 ≡ 4, so −2^63 ≡ p − 4.
  EXPECT_EQ(signed_mod(std::numeric_limits<std::int64_t>::min()),
            kPrime - 4);
  EXPECT_EQ(signed_mod(std::numeric_limits<std::int64_t>::max()), 3u);
  static_assert(signed_mod(-2) == kPrime - 2);
}

TEST(BucketReducer, MatchesModulo) {
  // 8 (the minimum bucket count), 868 (2s on the turnstile benchmark),
  // 2^20 + 7 and 2^31 − 1.
  constexpr std::uint64_t kRanges[] = {8, 868, 1048583, 2147483647};
  Rng rng(31);
  for (const std::uint64_t range : kRanges) {
    const BucketReducer bucket(range);
    for (const std::uint64_t h : {range - 1, range, kPrime - 1, ~range})
      EXPECT_EQ(bucket(h), h % range) << "h " << h << " range " << range;
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t h = rng() % kPrime;
      ASSERT_EQ(bucket(h), h % range) << "h " << h << " range " << range;
    }
  }
}

TEST(PolyHash, DeterministicAndSeedSensitive) {
  PolyHash h1(5, 1), h2(5, 1), h3(5, 2);
  EXPECT_EQ(h1(42), h2(42));
  int diff = 0;
  for (std::uint64_t x = 0; x < 50; ++x)
    if (h1(x) != h3(x)) ++diff;
  EXPECT_GT(diff, 45);
}

TEST(PolyHash, BucketsRoughlyUniform) {
  PolyHash h(7, 9);
  std::array<int, 16> counts{};
  const int n = 64000;
  for (int x = 0; x < n; ++x)
    ++counts[h(static_cast<std::uint64_t>(x)) % 16];
  for (int c : counts) {
    EXPECT_GT(c, n / 16 - 500);
    EXPECT_LT(c, n / 16 + 500);
  }
}

TEST(PolyHash, UnitInRange) {
  PolyHash h(3, 4);
  for (std::uint64_t x = 0; x < 1000; ++x) {
    const double u =
        static_cast<double>(h(x)) / static_cast<double>(kPrime);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PolyHash, LevelsGeometric) {
  PolyHash h(7, 11);
  std::array<int, 8> level_counts{};
  const int n = 100000;
  for (int x = 0; x < n; ++x) {
    const int l = h.level_at(embed_key(static_cast<std::uint64_t>(x)), 7);
    for (int i = 0; i <= l; ++i) ++level_counts[static_cast<std::size_t>(i)];
  }
  // Level ℓ retains ≈ n/2^ℓ keys.
  for (int l = 1; l <= 5; ++l) {
    const double expected = n / std::pow(2.0, l);
    EXPECT_NEAR(level_counts[static_cast<std::size_t>(l)], expected,
                expected * 0.15 + 50);
  }
}

TEST(PolyHash, PairwiseDistinctness) {
  // Different keys collide with probability ~1/p — never in this sample.
  PolyHash h(2, 21);
  std::set<std::uint64_t> seen;
  for (std::uint64_t x = 0; x < 2000; ++x) seen.insert(h(x));
  EXPECT_EQ(seen.size(), 2000u);
}

}  // namespace
}  // namespace kc::sketch
