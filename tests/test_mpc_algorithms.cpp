// Tests of the MPC coreset algorithms (Algorithm 2, Algorithm 6,
// Algorithm 7) and the baselines, against planted-optimum instances.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/cost.hpp"
#include "core/solver.hpp"
#include "mpc/ceccarello.hpp"
#include "mpc/multi_round.hpp"
#include "mpc/one_round.hpp"
#include "mpc/partition.hpp"
#include "mpc/two_round.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace kc::mpc {
namespace {

const Metric kL2{Norm::L2};

PlantedInstance medium_planted(std::uint64_t seed, std::size_t n = 1200,
                               int k = 3, std::int64_t z = 12) {
  PlantedConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.z = z;
  cfg.dim = 2;
  cfg.seed = seed;
  return make_planted(cfg);
}

// Shared validation: the produced coreset must preserve total weight, stay
// within the size regime, and the planted centers must cover it within
// (1+ε')·opt_hi with outlier budget z.
void validate_coreset(const PlantedInstance& inst, const WeightedSet& coreset,
                      double eps_eff, std::int64_t z) {
  EXPECT_EQ(total_weight(coreset), total_weight(inst.points));
  ASSERT_FALSE(coreset.empty());
  const double r =
      radius_with_outliers(coreset, inst.planted_centers, z, kL2);
  EXPECT_LE(r, (1.0 + eps_eff) * inst.opt_hi + 1e-9);
}

TEST(TwoRound, AdversarialPartitionValid) {
  const auto inst = medium_planted(3);
  const auto parts =
      partition_points(inst.points, 8, PartitionKind::EvenSorted, 0);
  TwoRoundOptions opt;
  opt.eps = 0.5;
  const auto res = two_round_coreset(parts, 3, 12, kL2, {}, opt);

  EXPECT_EQ(res.stats.rounds, 2);
  validate_coreset(inst, res.coreset, res.eps_effective, 12);
  // The guessing mechanism must bound the total outlier slots by 2z.
  EXPECT_LE(res.sum_outlier_guesses, 2 * 12);
  EXPECT_GT(res.r_hat, 0.0);
}

TEST(TwoRound, RHatIsBoundedByRhoTimesOpt) {
  // Lemma 8 (ρ-generalised): r̂ ≤ ρ·optk,z(P).  With the planted bracket,
  // assert r̂ ≤ ρ_max·opt_hi where ρ_max is the Charikar factor (3(1+β)
  // = 3.75) — the Auto oracle may add the summary slack, so allow the
  // summary ρ as the generous cap.
  const auto inst = medium_planted(5);
  const auto parts =
      partition_points(inst.points, 6, PartitionKind::RoundRobin, 0);
  const auto res = two_round_coreset(parts, 3, 12, kL2, {});
  EXPECT_LE(res.r_hat, 12.0 * inst.opt_hi + 1e-9);
  // And r̂ cannot be smaller than the smallest conceivable local optimum.
  EXPECT_GE(res.r_hat, 0.0);
}

TEST(TwoRound, MergedUnionIsMiniBallCovering) {
  // Lemma 9: every original point is within ε·opt of some merged rep.
  const auto inst = medium_planted(7, 900, 3, 8);
  const auto parts =
      partition_points(inst.points, 5, PartitionKind::EvenSorted, 0);
  TwoRoundOptions opt;
  opt.eps = 0.5;
  const auto res = two_round_coreset(parts, 3, 8, kL2, {}, opt);
  for (const auto& wp : inst.points) {
    double best = 1e300;
    for (const auto& rep : res.merged)
      best = std::min(best, kL2.dist(wp.p, rep.p));
    EXPECT_LE(best, opt.eps * inst.opt_hi + 1e-9);
  }
}

TEST(TwoRound, WorkerStorageExcludesZ) {
  // The headline improvement: worker-machine coreset sizes must not carry
  // an additive z each.  With all z outliers on one machine, the total of
  // all local coreset sizes stays ≤ m·k·(4ρ/ε)^d + 2z + m (slack for
  // rounding), not m·z.
  const std::int64_t z = 64;
  const auto inst = medium_planted(11, 2500, 2, z);
  const int m = 10;
  const auto parts =
      partition_points(inst.points, m, PartitionKind::EvenSorted, 0);
  TwoRoundOptions opt;
  opt.eps = 1.0;
  const auto res = two_round_coreset(parts, 2, z, kL2, {}, opt);
  std::size_t total_local = 0;
  for (auto s : res.local_coreset_sizes) total_local += s;
  // Generous structural bound: the z-dependence must be additive (2z over
  // ALL machines), not multiplicative in m.
  const double per_machine_kterm =
      2.0 * std::pow(4.0 * 12.0 / opt.eps, 2);  // k(4ρ/ε)^d with ρ ≤ 12
  EXPECT_LT(static_cast<double>(total_local),
            m * per_machine_kterm + 2.0 * z + m);
}

// FNV-1a over the bit patterns of every coordinate and weight, in order.
std::uint64_t fingerprint(const WeightedSet& pts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& wp : pts) {
    for (const double c : wp.p.coords()) mix(std::bit_cast<std::uint64_t>(c));
    mix(static_cast<std::uint64_t>(wp.w));
  }
  return h;
}

TEST(TwoRound, GoldenOnSummaryOraclePath) {
  // 1000 points per machine, above the Auto oracle's 600-point threshold,
  // so every V_i[j] goes through the Summary oracle (τ_j = 193..256 < 1000).
  // r̂ is a V table entry and Σ guesses is read off the tables, so they pin
  // the tables; the fingerprint pins the coreset.  Recorded before Round 1
  // moved to one checkpointed traversal per machine.
  const auto inst = medium_planted(43, 4000, 3, 40);
  const auto parts =
      partition_points(inst.points, 4, PartitionKind::EvenSorted, 0);
  ThreadPool pool(4);
  ExecContext pooled;
  pooled.pool = &pool;
  for (const ExecContext& ctx : {ExecContext{}, pooled}) {
    const auto res = two_round_coreset(parts, 3, 40, kL2, ctx);
    EXPECT_EQ(res.r_hat, 0x1.5a4920731e81ap+0);  // 1.3526783257534647
    EXPECT_EQ(res.sum_outlier_guesses, 70);
    EXPECT_EQ(res.merged.size(), 729u);
    EXPECT_EQ(res.coreset.size(), 296u);
    EXPECT_EQ(fingerprint(res.coreset), 9863276688183447864ULL);
  }
}

TEST(OneRound, RandomPartitionValid) {
  const auto inst = medium_planted(13);
  const auto parts =
      partition_points(inst.points, 8, PartitionKind::Random, 99);
  OneRoundOptions opt;
  opt.eps = 0.5;
  const auto res =
      one_round_coreset(parts, 3, 12, inst.points.size(), kL2, {}, opt);
  EXPECT_EQ(res.stats.rounds, 1);
  validate_coreset(inst, res.coreset, res.eps_effective, 12);
  EXPECT_LE(res.z_local, 12);
}

TEST(OneRound, ZLocalFormula) {
  const auto inst = medium_planted(17, 1000, 2, 10);
  const auto parts =
      partition_points(inst.points, 10, PartitionKind::Random, 1);
  const auto res = one_round_coreset(parts, 2, 10, 1000, kL2, {});
  // z' = min(z, ⌈6z/m + 3·log2 n⌉) = min(10, ⌈6 + 29.9⌉) = 10.
  EXPECT_EQ(res.z_local, 10);
}

TEST(MultiRound, ErrorComposesAcrossRounds) {
  const auto inst = medium_planted(19);
  const auto parts =
      partition_points(inst.points, 9, PartitionKind::RoundRobin, 0);
  MultiRoundOptions opt;
  opt.eps = 0.25;
  opt.rounds = 2;
  const auto res = multi_round_coreset(parts, 3, 12, kL2, {}, opt);
  EXPECT_EQ(res.stats.rounds, 2);
  EXPECT_NEAR(res.eps_effective, std::pow(1.25, 2) - 1.0, 1e-12);
  validate_coreset(inst, res.coreset, res.eps_effective, 12);
}

TEST(MultiRound, MoreRoundsLessStorage) {
  const auto inst = medium_planted(23, 4000, 2, 8);
  const auto parts =
      partition_points(inst.points, 16, PartitionKind::RoundRobin, 0);
  MultiRoundOptions r1, r3;
  r1.eps = r3.eps = 0.5;
  r1.rounds = 1;
  r3.rounds = 3;  // β shrinks: 16 → ⌈16^{1/3}⌉ = 3
  const auto res1 = multi_round_coreset(parts, 2, 8, kL2, {}, r1);
  const auto res3 = multi_round_coreset(parts, 2, 8, kL2, {}, r3);
  validate_coreset(inst, res1.coreset, res1.eps_effective, 8);
  validate_coreset(inst, res3.coreset, res3.eps_effective, 8);
  // With R=1 the coordinator receives all m local coresets at once; with
  // R=3 fan-in is β per round, so its peak storage is smaller.
  EXPECT_LT(res3.stats.coordinator_words(), res1.stats.coordinator_words());
}

TEST(Ceccarello, ValidButZHeavy) {
  const std::int64_t z = 24;
  const auto inst = medium_planted(29, 2000, 2, z);
  const auto parts =
      partition_points(inst.points, 8, PartitionKind::EvenSorted, 0);
  CeccarelloOptions copt;
  copt.eps = 1.0;
  const auto res = ceccarello_coreset(parts, 2, z, kL2, {}, copt);
  validate_coreset(inst, res.coreset, 3.0 * copt.eps, z);
  // The per-machine budget must carry the multiplicative z term.
  EXPECT_GE(res.tau, (2 + z) * 16);  // (k+z)·⌈4/ε⌉^d, d=2, ε=1 → 16
}

TEST(Guha, LocalZBaselineValid) {
  const auto inst = medium_planted(31, 1500, 3, 10);
  const auto parts =
      partition_points(inst.points, 6, PartitionKind::EvenSorted, 0);
  OneRoundOptions gopt;
  gopt.eps = 0.5;
  const auto res = guha_local_z_coreset(parts, 3, 10, kL2, {}, gopt);
  validate_coreset(inst, res.coreset, 3.0 * gopt.eps, 10);
}

// The separating workload for the outlier-guessing ablation (ABL-GUESS):
// points that look like outliers *locally* but are globally structured.
// Each machine holds dense cluster points plus a slice of a wide uniform
// cloud.  The local-z baseline [29] spends its full budget z per machine,
// gets a tiny local radius, and keeps every cloud point; Algorithm 2's r̂
// rule caps Σ(2^ĵ−1) ≤ 2z globally, forcing a realistic (large) radius and
// a compact covering.
WeightedSet cloud_and_clusters(std::size_t n_cluster, std::size_t n_cloud,
                               std::uint64_t seed) {
  PlantedConfig cfg;
  cfg.n = n_cluster;
  cfg.k = 2;
  cfg.z = 0;
  cfg.dim = 2;
  cfg.seed = seed;
  const auto planted = make_planted(cfg);
  WeightedSet pts = planted.points;
  Rng rng(seed ^ 0xabcdef);
  for (std::size_t i = 0; i < n_cloud; ++i) {
    Point p{rng.uniform_real(-5.0, 45.0), rng.uniform_real(-5.0, 45.0)};
    pts.push_back({p, 1});
  }
  return pts;
}

TEST(AblationShape, TwoRoundBeatsGuhaOnOutlierVolume) {
  const std::int64_t z = 48;
  const WeightedSet pts = cloud_and_clusters(2000, 240, 37);
  const int m = 10;
  const auto parts = partition_points(pts, m, PartitionKind::RoundRobin, 0);

  TwoRoundOptions topt;
  topt.eps = 0.5;
  OneRoundOptions gopt;
  gopt.eps = 0.5;
  const auto ours = two_round_coreset(parts, 2, z, kL2, {}, topt);
  const auto guha = guha_local_z_coreset(parts, 2, z, kL2, {}, gopt);

  EXPECT_LE(ours.sum_outlier_guesses, 2 * z);
  EXPECT_LT(ours.merged.size(), guha.merged.size());
}

TEST(EndToEnd, SolveOnTwoRoundCoresetMatchesDirect) {
  const auto inst = medium_planted(41, 800, 3, 6);
  const auto parts =
      partition_points(inst.points, 4, PartitionKind::RoundRobin, 0);
  TwoRoundOptions opt;
  opt.eps = 0.25;
  const auto res = two_round_coreset(parts, 3, 6, kL2, {}, opt);
  const testing::PipelineQuality q =
      testing::compare_on_full(inst.points, res.coreset, 3, 6, kL2);
  EXPECT_LE(q.ratio, 3.0 * (1.0 + res.eps_effective) + 1e-9);
}

}  // namespace
}  // namespace kc::mpc
