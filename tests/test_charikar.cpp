#include <gtest/gtest.h>

#include <algorithm>

#include "core/brute_force.hpp"
#include "core/charikar.hpp"
#include "core/cost.hpp"
#include "test_support.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

// Against the continuous optimum the stated ρ is w.r.t. opt_disc ≤ 2·opt
// (charikar.hpp), so the checks below allow 2ρ = 6(1+β).
constexpr double kContinuousRho = 2.0 * kCharikarRho;

TEST(CharikarRun, SucceedsAtLargeRadius) {
  const auto inst = testing::tiny_planted(2, 3, 2, 41);
  const CharikarRun run = charikar_run(inst.points, 2, 3, 1000.0, kL2);
  EXPECT_TRUE(run.success);
  EXPECT_LE(run.centers.size(), 2u);
}

TEST(CharikarRun, FailsAtTinyRadiusOnSpreadData) {
  const auto inst = testing::tiny_planted(2, 0, 2, 43);
  const CharikarRun run = charikar_run(inst.points, 2, 0, 1e-9, kL2);
  EXPECT_FALSE(run.success);
  EXPECT_GT(run.uncovered, 0);
}

TEST(CharikarRun, SuccessMonotoneInRadius) {
  const auto inst = testing::tiny_planted(3, 5, 2, 47);
  bool seen_success = false;
  for (double r : {0.01, 0.1, 0.5, 1.0, 5.0, 50.0, 500.0}) {
    const bool s = charikar_run(inst.points, 3, 5, r, kL2).success;
    if (seen_success) {
      EXPECT_TRUE(s) << "success must be monotone, r=" << r;
    }
    seen_success = seen_success || s;
  }
  EXPECT_TRUE(seen_success);
}

TEST(CharikarRun, ExpandedBallsActuallyCover) {
  // The run's promise: uncovered weight outside the 3r-expanded balls
  // equals run.uncovered.
  const auto inst = testing::tiny_planted(2, 4, 2, 53);
  const double r = inst.opt_hi;  // a feasible guess
  const CharikarRun run = charikar_run(inst.points, 2, 4, r, kL2);
  ASSERT_TRUE(run.success);
  EXPECT_LE(uncovered_weight(inst.points, run.centers, 3.0 * r, kL2), 4);
}

TEST(CharikarOracle, TwoSidedOnPlantedBracket) {
  // opt ≤ radius ≤ 2ρ·opt, with opt bracketed by [opt_lo, opt_hi].
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto inst = testing::tiny_planted(3, 4, 2, seed);
    const CharikarResult res = charikar_oracle(inst.points, 3, 4, kL2);
    EXPECT_GE(res.radius, inst.opt_lo - 1e-9) << "seed " << seed;
    EXPECT_LE(res.radius, kContinuousRho * inst.opt_hi + 1e-9)
        << "seed " << seed;
  }
}

TEST(CharikarOracle, RadiusIsFeasibleUpperBound) {
  // By construction radius = 3·r₀ where the run at r₀ succeeded: the
  // reported centers with the reported radius must be feasible.
  const auto inst = testing::tiny_planted(2, 6, 2, 59);
  const CharikarResult res = charikar_oracle(inst.points, 2, 6, kL2);
  EXPECT_LE(uncovered_weight(inst.points, res.centers,
                             res.radius * (1 + 1e-12), kL2),
            6);
}

TEST(CharikarOracle, MatchesBruteForceWithinFactor) {
  const auto inst = testing::tiny_planted(2, 2, 1, 61);
  WeightedSet small(inst.points.begin(),
                    inst.points.begin() + std::min<std::size_t>(
                                              inst.points.size(), 14));
  const double opt = brute_force_radius(small, 2, 2, kL2);
  const CharikarResult res = charikar_oracle(small, 2, 2, kL2);
  if (opt > 0) {
    EXPECT_GE(res.radius, opt / 2.0 - 1e-9);  // discrete vs continuous slack
    EXPECT_LE(res.radius, kContinuousRho * opt + 1e-9);
  }
}

TEST(CharikarOracle, TotalWeightBelowZGivesZeroRadius) {
  WeightedSet pts;
  pts.push_back({Point{0.0}, 1});
  pts.push_back({Point{5.0}, 2});
  const CharikarResult res = charikar_oracle(pts, 1, 3, kL2);
  EXPECT_DOUBLE_EQ(res.radius, 0.0);
  EXPECT_FALSE(res.centers.empty());
}

TEST(CharikarOracle, AllPointsCoincide) {
  WeightedSet pts(6, WeightedPoint{Point{2.0, 2.0}, 1});
  const CharikarResult res = charikar_oracle(pts, 2, 0, kL2);
  EXPECT_DOUBLE_EQ(res.radius, 0.0);
}

TEST(CharikarOracle, WeightedOutlierBudget) {
  // A far point of weight 3 cannot be dropped with z=2.
  WeightedSet pts;
  for (double x : {0.0, 0.5, 1.0}) pts.push_back({Point{x}, 1});
  pts.push_back({Point{100.0}, 3});
  const CharikarResult with_budget = charikar_oracle(pts, 1, 3, kL2);
  const CharikarResult without = charikar_oracle(pts, 1, 2, kL2);
  EXPECT_LT(with_budget.radius, 10.0);
  EXPECT_GE(without.radius, 33.0);  // ≥ opt = 49.75 is 3r₀ ≥ opt… loose check
}

TEST(CharikarOracle, EmptyInput) {
  const CharikarResult res = charikar_oracle({}, 2, 1, kL2);
  EXPECT_DOUBLE_EQ(res.radius, 0.0);
  EXPECT_TRUE(res.centers.empty());
}

}  // namespace
}  // namespace kc
