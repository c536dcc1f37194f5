#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "sketch/hashing.hpp"
#include "sketch/one_sparse.hpp"
#include "sketch/sparse_recovery.hpp"
#include "util/rng.hpp"

namespace kc::sketch {
namespace {

// Adds `delta` copies of `key` to a cell whose fingerprints use point r.
void update(OneSparseCell& cell, std::uint64_t key, std::int64_t delta,
            std::uint64_t r) {
  const std::uint64_t x = embed_key(key);
  cell.add(x, delta, signed_mod(delta), pow_mod(r, x));
}

TEST(OneSparse, RecoversSingleton) {
  constexpr std::uint64_t r = 7;
  OneSparseCell cell;
  update(cell, 42, 5, r);
  const auto rec = cell.recover(r);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->key, 42u);
  EXPECT_EQ(rec->count, 5);
}

TEST(OneSparse, EmptyAfterCancellation) {
  constexpr std::uint64_t r = 7;
  OneSparseCell cell;
  update(cell, 42, 5, r);
  update(cell, 42, -5, r);
  EXPECT_TRUE(cell.empty());
  EXPECT_FALSE(cell.recover(r).has_value());
}

TEST(OneSparse, RejectsTwoKeys) {
  constexpr std::uint64_t r = 7;
  OneSparseCell cell;
  update(cell, 1, 1, r);
  update(cell, 2, 1, r);
  EXPECT_FALSE(cell.recover(r).has_value());
  EXPECT_FALSE(cell.empty());
}

TEST(OneSparse, RecoveryAfterPartialDeletes) {
  constexpr std::uint64_t r = 13;
  OneSparseCell cell;
  update(cell, 100, 3, r);
  update(cell, 200, 2, r);
  update(cell, 200, -2, r);  // back to singleton
  const auto rec = cell.recover(r);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->key, 100u);
  EXPECT_EQ(rec->count, 3);
}

TEST(OneSparse, LargeKeyRoundTrip) {
  constexpr std::uint64_t r = 5;
  OneSparseCell cell;
  const std::uint64_t key = (1ULL << 59) + 12345;
  update(cell, key, 7, r);
  const auto rec = cell.recover(r);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->key, key);
}

TEST(SparseRecovery, ExactRecoveryWithinCapacity) {
  SparseRecovery sk(32, /*seed=*/1);
  std::map<std::uint64_t, std::int64_t> truth;
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const std::uint64_t key = rng() % 100000;
    const auto count = static_cast<std::int64_t>(1 + rng.uniform(9));
    truth[key] += count;
    sk.update(key, count);
  }
  const auto dec = sk.decode();
  ASSERT_TRUE(dec.complete);
  ASSERT_EQ(dec.items.size(), truth.size());
  for (const auto& item : dec.items) {
    ASSERT_TRUE(truth.count(item.key));
    EXPECT_EQ(item.count, truth[item.key]);
  }
}

TEST(SparseRecovery, DeletionsCancelExactly) {
  SparseRecovery sk(16, 3);
  for (int i = 0; i < 500; ++i) sk.update(static_cast<std::uint64_t>(i), 1);
  for (int i = 0; i < 500; ++i)
    if (i % 2 == 0) sk.update(static_cast<std::uint64_t>(i), -1);
  // 250 keys remain — above capacity, decode must not report complete.
  EXPECT_FALSE(sk.decode().complete);
  for (int i = 0; i < 500; ++i)
    if (i % 2 == 1 && i > 20) sk.update(static_cast<std::uint64_t>(i), -1);
  // Keys 1..19 odd remain: 10 keys ≤ 16 capacity.
  const auto dec = sk.decode();
  ASSERT_TRUE(dec.complete);
  EXPECT_EQ(dec.items.size(), 10u);
  for (const auto& item : dec.items) {
    EXPECT_EQ(item.key % 2, 1u);
    EXPECT_LT(item.key, 21u);
    EXPECT_EQ(item.count, 1);
  }
}

TEST(SparseRecovery, EmptyDecodesComplete) {
  SparseRecovery sk(8, 4);
  const auto dec = sk.decode();
  EXPECT_TRUE(dec.complete);
  EXPECT_TRUE(dec.items.empty());
}

TEST(SparseRecovery, OvercapacityReportsIncomplete) {
  SparseRecovery sk(8, 5);
  for (int i = 0; i < 1000; ++i) sk.update(static_cast<std::uint64_t>(i * 7), 1);
  const auto dec = sk.decode();
  EXPECT_FALSE(dec.complete);
}

TEST(SparseRecovery, SuccessProbabilityAcrossSeeds) {
  // At exactly capacity s, decoding must succeed for the vast majority of
  // seeds (peeling threshold is ~2× capacity per row).
  int successes = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    SparseRecovery sk(24, static_cast<std::uint64_t>(t) + 100);
    Rng rng(static_cast<std::uint64_t>(t));
    for (int i = 0; i < 24; ++i) sk.update(rng(), 1);
    if (sk.decode().complete) ++successes;
  }
  EXPECT_GE(successes, trials - 1);
}

TEST(SparseRecovery, LockstepRowHashesMatchPolyHash) {
  // Row r hashes with PolyHash(7, seed_r), seed_r the (r+2)-th draw of
  // Rng(seed): the first draw is the sketch's own evaluation point.
  const std::uint64_t seed = 17;
  const SparseRecovery sk(24, seed);
  Rng seeds(seed);
  EXPECT_EQ(sk.point(), draw_point(seeds));
  std::vector<PolyHash> rows;
  for (std::size_t r = 0; r < SparseRecovery::kRows; ++r)
    rows.emplace_back(7, seeds());
  Rng keys(18);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = i < 100 ? keys() % 65536 : keys() >> 4;
    const auto h = sk.row_hashes(embed_key(key));
    for (std::size_t r = 0; r < SparseRecovery::kRows; ++r)
      EXPECT_EQ(h[r], rows[r](key)) << "row " << r << " key " << key;
  }
}

TEST(SparseRecovery, WordsAccounting) {
  SparseRecovery sk(10, 1);
  // 4 rows × max(2·10, 8) buckets × 3 words + hash + header.
  EXPECT_GE(sk.words(), 4u * 20u * 3u);
  EXPECT_LE(sk.words(), 4u * 20u * 3u + 64u);
}

}  // namespace
}  // namespace kc::sketch
