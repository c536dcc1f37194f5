// Composition lemmas (Lemma 4 union, Lemma 5 transitivity) and the
// end-of-pipeline solver quality.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/coreset.hpp"
#include "core/cost.hpp"
#include "core/mbc.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "core_reference.hpp"
#include "geometry/point_buffer.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

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

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// The solver reads the oracle's working set; it must pick the same centers
// and report the same radius, bit for bit, as the solver that decided on
// its own whether to compress (tests/core_reference.hpp), in all three
// regimes, with unit and non-unit weights, with and without a caller
// buffer, and at pool sizes 1 and 8.
TEST(Solver, MatchesInlineCompressionReferenceBitForBit) {
  struct Regime {
    const char* name;
    std::size_t n;
    std::int64_t z;
  };
  // k = 3, d = 2: τ = 3·8² + z + 1.
  const Regime regimes[] = {
      {"n <= 600", 500, 10},         // Charikar on the input
      {"600 < n <= tau", 700, 600},  // τ = 793: Charikar on the input
      {"n > tau", 3000, 20},         // τ = 213: Charikar on a summary
  };
  ASSERT_LE(regimes[0].n, 600u);
  ASSERT_GT(regimes[1].n, 600u);
  ASSERT_LE(static_cast<std::int64_t>(regimes[1].n),
            summary_center_budget(3, regimes[1].z, 0.5, 2));
  ASSERT_GT(static_cast<std::int64_t>(regimes[2].n),
            summary_center_budget(3, regimes[2].z, 0.5, 2));
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (const Regime& r : regimes) {
    PlantedConfig cfg;
    cfg.n = r.n;
    cfg.k = 3;
    cfg.z = 20;
    cfg.dim = 2;
    cfg.seed = 31;
    WeightedSet unit = make_planted(cfg).points;
    WeightedSet weighted = unit;
    for (std::size_t i = 0; i < weighted.size(); ++i)
      weighted[i].w = 1 + static_cast<std::int64_t>(i % 7);
    for (const WeightedSet* pts : {&unit, &weighted}) {
      const std::string weights = pts == &unit ? "unit" : "weighted";
      const Solution want =
          reference::solve_kcenter_outliers_inline(*pts, 3, r.z, kL2);
      const kernels::PointBuffer buf(*pts);
      for (ThreadPool* pool : {&pool1, &pool8}) {
        for (const bool with_buffer : {false, true}) {
          SCOPED_TRACE(std::string(r.name) + ", " + weights + ", threads " +
                       std::to_string(pool->num_threads()) +
                       (with_buffer ? ", buffer" : ", no buffer"));
          OracleOptions oracle;
          oracle.exec.pool = pool;
          oracle.exec.buffer = with_buffer ? &buf : nullptr;
          const Solution got =
              solve_kcenter_outliers(*pts, 3, r.z, kL2, oracle);
          EXPECT_EQ(got.centers, want.centers);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.radius),
                    std::bit_cast<std::uint64_t>(want.radius))
              << hex(got.radius) << " vs " << hex(want.radius);
        }
      }
    }
  }
}

TEST(Solver, PipelineQualityNearOne) {
  const auto inst = testing::tiny_planted(3, 4, 2, 109);
  const double eps = 0.25;
  const MiniBallCovering mbc = mbc_construct(inst.points, 3, 4, eps, kL2);
  const testing::PipelineQuality q =
      testing::compare_on_full(inst.points, mbc.reps, 3, 4, kL2);
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
