#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/brute_force.hpp"
#include "core/gonzalez.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

TEST(Gonzalez, SelectsRequestedCenters) {
  const WeightedSet pts = with_unit_weights(
      {Point{0.0}, Point{10.0}, Point{20.0}, Point{30.0}});
  const GonzalezResult g = gonzalez(pts, 3, kL2);
  EXPECT_EQ(g.center_indices.size(), 3u);
  EXPECT_EQ(g.delta.size(), 3u);
}

TEST(Gonzalez, DeltaNonIncreasing) {
  const auto inst = testing::tiny_planted(3, 4, 2, 17);
  const GonzalezResult g = gonzalez(inst.points, 20, kL2);
  for (std::size_t t = 1; t < g.delta.size(); ++t)
    EXPECT_LE(g.delta[t], g.delta[t - 1] + 1e-12);
}

TEST(Gonzalez, CentersArePairwiseSeparated) {
  // Selected centers must be pairwise ≥ δ_final apart.
  const auto inst = testing::tiny_planted(3, 2, 2, 5);
  const GonzalezResult g = gonzalez(inst.points, 12, kL2);
  const double delta = g.delta.back();
  const PointSet cs = g.centers(inst.points);
  for (std::size_t i = 0; i < cs.size(); ++i)
    for (std::size_t j = i + 1; j < cs.size(); ++j)
      EXPECT_GE(kL2.dist(cs[i], cs[j]), delta - 1e-9);
}

TEST(Gonzalez, AssignmentIsNearestSelected) {
  const auto inst = testing::tiny_planted(2, 0, 2, 11);
  const GonzalezResult g = gonzalez(inst.points, 6, kL2);
  const PointSet cs = g.centers(inst.points);
  for (std::size_t i = 0; i < inst.points.size(); ++i) {
    const double assigned = kL2.dist(inst.points[i].p, cs[g.assignment[i]]);
    for (const auto& c : cs)
      EXPECT_LE(assigned, kL2.dist(inst.points[i].p, c) + 1e-9);
  }
}

TEST(Gonzalez, TwoApproxOfKCenterNoOutliers) {
  // δ_k ≤ 2·opt_k (classic guarantee), checked against brute force.
  const auto inst = testing::tiny_planted(3, 0, 1, 23);
  WeightedSet small(inst.points.begin(),
                    inst.points.begin() + std::min<std::size_t>(
                                              inst.points.size(), 14));
  const int k = 3;
  const GonzalezResult g = gonzalez(small, k, kL2);
  const double opt = brute_force_radius(small, k, 0, kL2);
  EXPECT_LE(g.delta.back(), 2.0 * opt + 1e-9);
}

TEST(Gonzalez, SummaryPreservesWeight) {
  auto inst = testing::tiny_planted(3, 4, 2, 29);
  inst.points[0].w = 7;  // exercise non-unit weights
  const GonzalezResult g = gonzalez(inst.points, 9, kL2);
  const WeightedSet s = gonzalez_summary(inst.points, g);
  EXPECT_EQ(total_weight(s), total_weight(inst.points));
  EXPECT_EQ(s.size(), g.center_indices.size());
}

TEST(Gonzalez, SummaryCoveringRadiusIsDelta) {
  const auto inst = testing::tiny_planted(2, 2, 2, 31);
  const GonzalezResult g = gonzalez(inst.points, 8, kL2);
  const WeightedSet s = gonzalez_summary(inst.points, g);
  const double delta = g.delta.back();
  for (std::size_t i = 0; i < inst.points.size(); ++i) {
    EXPECT_LE(kL2.dist(inst.points[i].p, s[g.assignment[i]].p), delta + 1e-9);
  }
}

TEST(Gonzalez, DegenerateAllEqualPoints) {
  WeightedSet pts(5, WeightedPoint{Point{1.0, 1.0}, 1});
  const GonzalezResult g = gonzalez(pts, 3, kL2);
  // All points coincide: one center suffices, radius 0, early stop.
  EXPECT_EQ(g.center_indices.size(), 1u);
  EXPECT_DOUBLE_EQ(g.delta.back(), 0.0);
}

TEST(Gonzalez, PackingBoundDrivesDeltaBelowEpsOpt) {
  // With τ = k(4/ε)^d + z + 1 centers, δ_τ ≤ ε·opt (Lemma 6 packing).
  const auto inst = testing::tiny_planted(2, 3, 1, 37);
  const double eps = 1.0;
  const int dim = 1;
  const auto tau = static_cast<int>(
      2 * std::pow(std::ceil(4.0 / eps), dim) + 3 + 1);
  const GonzalezResult g = gonzalez(inst.points, tau, kL2);
  // opt ≥ opt_lo from the planted bracket.
  EXPECT_LE(g.delta.back(), eps * inst.opt_hi + 1e-9);
}

// ---- gonzalez_prefixes: one checkpointed traversal ----------------------

// Points on a small integer grid with weights 1..5: repeated points and
// tied distances exercise first-max-wins and the strict-< reassignment.
WeightedSet grid_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  WeightedSet pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<double>(rng.uniform(40));
    const auto y = static_cast<double>(rng.uniform(40));
    pts.push_back({Point{x, y}, 1 + static_cast<std::int64_t>(rng.uniform(5))});
  }
  return pts;
}

std::vector<int> random_budgets(Rng& rng, int max_budget) {
  std::vector<int> budgets(1 + rng.uniform(6));
  for (int& b : budgets)
    b = 1 + static_cast<int>(
                rng.uniform(static_cast<std::uint64_t>(max_budget)));
  return budgets;
}

void expect_same_prefix(const GonzalezPrefix& got, const WeightedSet& want,
                        double want_delta) {
  ASSERT_EQ(got.summary.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(got.summary[c].p, want[c].p) << "center " << c;
    EXPECT_EQ(got.summary[c].w, want[c].w) << "center " << c;
  }
  EXPECT_EQ(got.delta, want_delta);
}

// Every checkpoint equals a fresh traversal to its budget, word for word.
void expect_prefixes_match(const WeightedSet& pts,
                           const std::vector<int>& budgets,
                           const Metric& metric, ThreadPool* pool) {
  const std::vector<GonzalezPrefix> prefixes =
      gonzalez_prefixes(pts, budgets, metric, pool);
  ASSERT_EQ(prefixes.size(), budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    SCOPED_TRACE("budget " + std::to_string(budgets[i]));
    const GonzalezResult g = gonzalez(pts, budgets[i], metric, pool);
    expect_same_prefix(prefixes[i], gonzalez_summary(pts, g), g.delta.back());
  }
}

TEST(GonzalezPrefixes, MatchFreshTraversalsInEveryNorm) {
  Rng rng(2024);
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    const Metric metric(norm);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("norm " + std::to_string(static_cast<int>(norm)) +
                   " seed " + std::to_string(seed));
      const WeightedSet pts = grid_points(1500, seed);
      expect_prefixes_match(pts, random_budgets(rng, 250), metric, nullptr);
    }
  }
}

TEST(GonzalezPrefixes, MatchFreshTraversalsOnEightThreadPool) {
  // Above the kernels' parallel grain, so the pool really splits the sweep.
  ThreadPool pool(8);
  Rng rng(77);
  const WeightedSet pts = grid_points(20000, 9);
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    SCOPED_TRACE("norm " + std::to_string(static_cast<int>(norm)));
    const Metric metric(norm);
    const std::vector<int> budgets = random_budgets(rng, 60);
    expect_prefixes_match(pts, budgets, metric, &pool);
    // …and the pooled checkpoints equal the sequential ones.
    const auto seq = gonzalez_prefixes(pts, budgets, metric, nullptr);
    const auto par = gonzalez_prefixes(pts, budgets, metric, &pool);
    for (std::size_t i = 0; i < budgets.size(); ++i)
      expect_same_prefix(par[i], seq[i].summary, seq[i].delta);
  }
}

TEST(GonzalezPrefixes, AllEqualPointsStopEarly) {
  const WeightedSet pts(7, WeightedPoint{Point{2.0, -1.0}, 3});
  const std::vector<int> budgets{4, 1, 9};
  expect_prefixes_match(pts, budgets, kL2, nullptr);
  for (const auto& prefix : gonzalez_prefixes(pts, budgets, kL2)) {
    ASSERT_EQ(prefix.summary.size(), 1u);  // one center, radius 0
    EXPECT_EQ(prefix.summary.front().w, 21);
    EXPECT_EQ(prefix.delta, 0.0);
  }
}

TEST(GonzalezPrefixes, BudgetAboveInputSize) {
  // Distinct points, so the traversal runs until it has every point.
  WeightedSet pts;
  for (int i = 0; i < 12; ++i)
    pts.push_back({Point{static_cast<double>(i * i), 0.5 * i}, 1 + i % 3});
  const std::vector<int> budgets{12, 40, 5, 13};
  expect_prefixes_match(pts, budgets, kL2, nullptr);
  const auto prefixes = gonzalez_prefixes(pts, budgets, kL2);
  EXPECT_EQ(prefixes[1].summary.size(), pts.size());
  EXPECT_EQ(prefixes[1].delta, 0.0);
  // Grid points with duplicates stop at radius 0 before n centers.
  expect_prefixes_match(grid_points(30, 3), {20, 30, 64}, kL2, nullptr);
}

TEST(GonzalezPrefixes, EmptyInputsGiveEmptyPrefixes) {
  EXPECT_TRUE(gonzalez_prefixes(grid_points(10, 1), {}, kL2).empty());
  const auto prefixes =
      gonzalez_prefixes(WeightedSet{}, std::vector<int>{3}, kL2);
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_TRUE(prefixes.front().summary.empty());
  EXPECT_EQ(prefixes.front().delta, 0.0);
}

}  // namespace
}  // namespace kc
