// Composition lemmas (Lemma 4 union, Lemma 5 transitivity) and the
// end-of-pipeline solver quality.

#include <gtest/gtest.h>

#include <cmath>

#include "core/coreset.hpp"
#include "core/cost.hpp"
#include "core/mbc.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "test_support.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

TEST(ComposeEps, Formulae) {
  EXPECT_DOUBLE_EQ(compose_eps(0.5, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(compose_eps(0.5, 0.5), 1.25);  // ε+γ+εγ
  EXPECT_NEAR(compose_eps_rounds(0.1, 3), std::pow(1.1, 3) - 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(compose_eps_rounds(0.2, 1), 0.2);
}

TEST(TransitiveProperty, RecompressKeepsCoveringWithComposedEps) {
  // Build a γ-covering, recompress with ε: result must cover P within
  // (ε+γ+εγ)·opt (Lemma 5), weight preserved.
  const auto inst = testing::tiny_planted(3, 4, 2, 101);
  const double gamma = 0.5, eps = 0.5;
  const MiniBallCovering first =
      mbc_construct(inst.points, 3, 4, gamma, kL2);
  const MiniBallCovering second = mbc_construct(first.reps, 3, 4, eps, kL2);

  EXPECT_EQ(total_weight(second.reps), total_weight(inst.points));

  // Composed covering radius: trace each original point through both
  // assignments.
  const double budget = compose_eps(eps, gamma) * inst.opt_hi;
  for (std::size_t i = 0; i < inst.points.size(); ++i) {
    const auto mid = first.assignment[i];
    const auto rep = second.assignment[mid];
    const double d =
        kL2.dist(inst.points[i].p, second.reps[rep].p);
    EXPECT_LE(d, budget + 1e-9);
  }
}

TEST(UnionProperty, DisjointPartsUnionCovers) {
  // Split a planted instance arbitrarily into 3 parts, build an MBC per
  // part with the global z (optk,z(P_i) ≤ optk,z(P) holds for subsets),
  // and check the union is a covering of P with radius ≤ ε·opt.
  const auto inst = testing::tiny_planted(3, 6, 2, 103);
  const double eps = 0.5;
  std::vector<WeightedSet> parts(3);
  for (std::size_t i = 0; i < inst.points.size(); ++i)
    parts[i % 3].push_back(inst.points[i]);

  std::vector<WeightedSet> coresets;
  double worst = 0.0;
  for (const auto& part : parts) {
    const MiniBallCovering mbc = mbc_construct(part, 3, 6, eps, kL2);
    EXPECT_TRUE(check_mbc_structure(part, mbc));
    worst = std::max(worst, max_assignment_dist(part, mbc, kL2));
    coresets.push_back(mbc.reps);
  }
  const WeightedSet merged = merge_coresets(coresets);
  EXPECT_EQ(total_weight(merged), total_weight(inst.points));
  EXPECT_LE(worst, eps * inst.opt_hi + 1e-9);
}

TEST(Solver, FindsPlantedStructure) {
  const auto inst = testing::tiny_planted(3, 4, 2, 107);
  const Solution sol = solve_kcenter_outliers(inst.points, 3, 4, kL2);
  // Charikar end-solver: radius ≤ ρ·opt ≤ ρ·opt_hi with ρ = 3(1+β)+slack.
  EXPECT_LE(sol.radius, 4.0 * inst.opt_hi + 1e-9);
  EXPECT_GE(sol.radius, 0.0);
}

TEST(Solver, PipelineQualityNearOne) {
  const auto inst = testing::tiny_planted(3, 4, 2, 109);
  const double eps = 0.25;
  const MiniBallCovering mbc = mbc_construct(inst.points, 3, 4, eps, kL2);
  const PipelineQuality q =
      compare_on_full(inst.points, mbc.reps, 3, 4, kL2);
  // Solving on the coreset must cost at most (1+O(ε)) of solving directly.
  // The end solver itself is a ~3-approx, so allow generous but bounded
  // slack; the QUALITY bench tracks the tight ratios.
  EXPECT_GT(q.radius_via_coreset, 0.0);
  EXPECT_LE(q.ratio, 3.0 * (1.0 + eps) + 1e-9);
}

TEST(Solver, CoresetRadiusSandwichAgainstDirect) {
  // optk,z on the coreset within (1±ε) of optk,z on P — verified through
  // the exact evaluator with shared candidate centers.
  const auto inst = testing::tiny_planted(2, 3, 2, 113);
  const double eps = 0.25;
  const MiniBallCovering mbc = mbc_construct(inst.points, 2, 3, eps, kL2);
  const double r_full =
      radius_with_outliers(inst.points, inst.planted_centers, 3, kL2);
  const double r_core =
      radius_with_outliers(mbc.reps, inst.planted_centers, 3, kL2);
  // Same centers: coreset radius within ±ε·opt_hi of the full radius.
  EXPECT_LE(std::abs(r_core - r_full), eps * inst.opt_hi + 1e-9);
}

}  // namespace
}  // namespace kc
