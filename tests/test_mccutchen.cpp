#include <gtest/gtest.h>

#include "core/cost.hpp"
#include "stream/mccutchen_khuller.hpp"
#include "test_support.hpp"
#include "workload/streams.hpp"

namespace kc::stream {
namespace {

const Metric kL2{Norm::L2};

TEST(McCutchenKhuller, LadderSizeScalesWithEps) {
  McCutchenKhuller coarse(2, 2, 1.0, kL2);
  McCutchenKhuller fine(2, 2, 0.25, kL2);
  EXPECT_LT(coarse.instances(), fine.instances());
  EXPECT_GE(coarse.instances(), 1);
}

TEST(McCutchenKhuller, HandlesTinyStreams) {
  McCutchenKhuller mk(2, 1, 0.5, kL2);
  mk.insert(Point{0.0});
  mk.insert(Point{1.0});
  const Solution sol = mk.query();
  EXPECT_GE(sol.radius, 0.0);
}

TEST(McCutchenKhuller, SolutionQualityOnPlanted) {
  PlantedConfig cfg;
  cfg.n = 900;
  cfg.k = 3;
  cfg.z = 5;
  cfg.dim = 2;
  cfg.seed = 81;
  const auto inst = make_planted(cfg);
  McCutchenKhuller mk(3, 5, 0.5, kL2);
  for (auto idx : shuffled_order(inst.points.size(), 3))
    mk.insert(inst.points[idx].p);
  const Solution sol = mk.query();
  // Evaluate the reported centers on the ground truth: (4+ε)-style approx,
  // generous constant to absorb the summary displacement.
  const double r =
      radius_with_outliers(inst.points, sol.centers, 5, kL2);
  EXPECT_LE(r, 8.0 * inst.opt_hi + 1e-9);
}

TEST(McCutchenKhuller, SpaceIsBoundedByKZShape) {
  // Peak stored points ≤ instances · (k+z) · (z+2) + slack — the Θ(kz/ε)
  // shape; must hold even under adversarial order.
  PlantedConfig cfg;
  cfg.n = 2000;
  cfg.k = 2;
  cfg.z = 8;
  cfg.dim = 2;
  cfg.seed = 83;
  const auto inst = make_planted(cfg);
  McCutchenKhuller mk(2, 8, 0.5, kL2);
  const auto order = testing::adversarial_order(
      testing::strip_weights(inst.points), inst.outlier_indices);
  for (auto idx : order) mk.insert(inst.points[idx].p);
  const auto cap = static_cast<std::size_t>(mk.instances()) *
                   static_cast<std::size_t>((2 + 8)) *
                   static_cast<std::size_t>(8 + 2) * 2;
  EXPECT_LE(mk.peak_points(), cap);
}

TEST(McCutchenKhuller, WeightConservationInSummary) {
  // All inserted points are represented (support + overflow) in each
  // instance; total weight equals points seen.
  McCutchenKhuller mk(2, 2, 1.0, kL2);
  Rng rng(5);
  const int n = 300;
  for (int i = 0; i < n; ++i)
    mk.insert(Point{rng.uniform_real(0, 100), rng.uniform_real(0, 100)});
  // Indirect check: a query solution must exist and have finite radius.
  const Solution sol = mk.query();
  EXPECT_GE(sol.radius, 0.0);
  EXPECT_FALSE(sol.centers.empty());
}

}  // namespace
}  // namespace kc::stream
