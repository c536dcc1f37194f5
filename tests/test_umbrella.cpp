// Guards the public umbrella header (src/kcenter.hpp): it must compile
// clean under -Wall -Wextra and expose enough of the API to run a small
// coreset → solve pipeline.  Examples build against this header only, so a
// regression here breaks every downstream consumer.

#include "kcenter.hpp"

#include <gtest/gtest.h>

namespace kc {
namespace {

TEST(Umbrella, ExposesCoreTypes) {
  const Solution sol;
  EXPECT_TRUE(sol.centers.empty());
  EXPECT_EQ(sol.radius, 0.0);

  const Point p{1.0, 2.0};
  EXPECT_EQ(p.dim(), 2);

  const WeightedSet ws = with_unit_weights({p, Point{3.0, 4.0}});
  EXPECT_EQ(total_weight(ws), 2);
}

TEST(Umbrella, CoresetPipelineRunsEndToEnd) {
  PlantedConfig cfg;
  cfg.n = 400;
  cfg.k = 2;
  cfg.z = 4;
  cfg.dim = 2;
  cfg.seed = 99;
  const PlantedInstance inst = make_planted(cfg);

  const Metric metric{Norm::L2};
  const auto mbc = mbc_construct(inst.points, cfg.k, cfg.z, 0.5, metric);
  ASSERT_FALSE(mbc.reps.empty());
  EXPECT_LE(mbc.reps.size(), inst.points.size());

  const Solution sol =
      solve_kcenter_outliers(mbc.reps, cfg.k, cfg.z, metric);
  EXPECT_EQ(static_cast<int>(sol.centers.size()), cfg.k);

  const double r =
      radius_with_outliers(inst.points, sol.centers, cfg.z, metric);
  EXPECT_GT(r, 0.0);
  // Coreset solutions are (1+ε)-competitive; leave generous slack since
  // this test only guards the umbrella header wiring, not the bounds.
  EXPECT_LE(r, 4.0 * inst.opt_hi);
}

}  // namespace
}  // namespace kc
