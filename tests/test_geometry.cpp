#include <gtest/gtest.h>

#include <cmath>

#include "geometry/box.hpp"
#include "geometry/metric.hpp"
#include "geometry/point.hpp"
#include "test_support.hpp"

namespace kc {
namespace {

TEST(Point, ConstructionAndAccess) {
  Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dim(), 3);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
}

TEST(Point, EqualityRequiresSameDimAndCoords) {
  EXPECT_EQ((Point{1.0, 2.0}), (Point{1.0, 2.0}));
  EXPECT_NE((Point{1.0, 2.0}), (Point{1.0, 2.1}));
  EXPECT_NE((Point{1.0}), (Point{1.0, 0.0}));
}

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0}, b{3.0, 5.0};
  EXPECT_EQ(a + b, (Point{4.0, 7.0}));
  EXPECT_EQ(b - a, (Point{2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
}

TEST(WeightedSetHelpers, RoundTrip) {
  PointSet ps{{1.0, 0.0}, {2.0, 0.0}};
  WeightedSet ws = with_unit_weights(ps);
  EXPECT_EQ(total_weight(ws), 2);
  ws[0].w = 5;
  EXPECT_EQ(total_weight(ws), 6);
  EXPECT_EQ(testing::strip_weights(ws), ps);
}

class MetricNorms : public ::testing::TestWithParam<Norm> {};

TEST_P(MetricNorms, IdentityAndSymmetry) {
  const Metric m{GetParam()};
  const Point a{1.0, -2.0, 0.5}, b{0.0, 4.0, -1.0};
  EXPECT_DOUBLE_EQ(m.dist(a, a), 0.0);
  EXPECT_DOUBLE_EQ(m.dist(a, b), m.dist(b, a));
  EXPECT_GT(m.dist(a, b), 0.0);
}

TEST_P(MetricNorms, TriangleInequalityRandom) {
  const Metric m{GetParam()};
  // Deterministic probe points.
  const Point pts[] = {Point{0.0, 0.0}, Point{3.0, 4.0}, Point{-1.0, 2.0},
                       Point{5.0, -2.0}};
  for (const auto& a : pts)
    for (const auto& b : pts)
      for (const auto& c : pts)
        EXPECT_LE(m.dist(a, c), m.dist(a, b) + m.dist(b, c) + 1e-12);
}

TEST_P(MetricNorms, DistKeyMonotoneInDist) {
  const Metric m{GetParam()};
  const Point o{0.0, 0.0};
  const Point near{1.0, 1.0}, far{3.0, 3.0};
  EXPECT_LT(m.dist_key(o, near), m.dist_key(o, far));
  EXPECT_DOUBLE_EQ(m.key_to_dist(m.dist_key(o, far)), m.dist(o, far));
}

INSTANTIATE_TEST_SUITE_P(AllNorms, MetricNorms,
                         ::testing::Values(Norm::L2, Norm::Linf, Norm::L1));

TEST(Metric, KnownValues) {
  const Point a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Metric{Norm::L2}.dist(a, b), 5.0);
  EXPECT_DOUBLE_EQ(Metric{Norm::Linf}.dist(a, b), 4.0);
  EXPECT_DOUBLE_EQ(Metric{Norm::L1}.dist(a, b), 7.0);
}

TEST(Box, ExtendAndContain) {
  Box b = Box::empty(2);
  EXPECT_TRUE(b.is_empty());
  b.extend({1.0, 1.0});
  b.extend({-1.0, 3.0});
  EXPECT_FALSE(b.is_empty());
  EXPECT_TRUE(b.contains({0.0, 2.0}));
  EXPECT_FALSE(b.contains({2.0, 2.0}));
  EXPECT_DOUBLE_EQ(b.max_side(), 2.0);
}

TEST(Spread, MinMaxPairwise) {
  const Metric m{Norm::L2};
  const PointSet pts{{0.0, 0.0}, {1.0, 0.0}, {10.0, 0.0}};
  const Spread s = compute_spread(pts, m);
  EXPECT_DOUBLE_EQ(s.d_min, 1.0);
  EXPECT_DOUBLE_EQ(s.d_max, 10.0);
  EXPECT_DOUBLE_EQ(s.ratio(), 10.0);
}

TEST(Spread, IgnoresZeroDistances) {
  const Metric m{Norm::L2};
  const PointSet pts{{0.0, 0.0}, {0.0, 0.0}, {4.0, 0.0}};
  const Spread s = compute_spread(pts, m);
  EXPECT_DOUBLE_EQ(s.d_min, 4.0);
}

}  // namespace
}  // namespace kc
