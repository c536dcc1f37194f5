#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/grid.hpp"

namespace kc {
namespace {

TEST(GridHierarchy, LevelCountMatchesLogDelta) {
  EXPECT_EQ(GridHierarchy(16, 2).levels(), 5);   // 2^4 = 16 → levels 0..4
  EXPECT_EQ(GridHierarchy(17, 2).levels(), 6);   // ⌈log2 17⌉ = 5
  EXPECT_EQ(GridHierarchy(2, 1).levels(), 2);
}

TEST(GridHierarchy, TopLevelIsSingleCell) {
  const GridHierarchy g(64, 2);
  EXPECT_EQ(g.universe_size(g.levels() - 1), 1u);
}

TEST(GridHierarchy, UniverseSizeShrinksWithLevel) {
  const GridHierarchy g(256, 2);
  EXPECT_EQ(g.universe_size(0), 256u * 256u);
  EXPECT_EQ(g.universe_size(1), 128u * 128u);
  for (int l = 1; l < g.levels(); ++l)
    EXPECT_LT(g.universe_size(l), g.universe_size(l - 1));
}

TEST(GridHierarchy, CellIdStableWithinCell) {
  const GridHierarchy g(64, 2);
  GridPoint a{{8, 9}, 2};
  GridPoint b{{11, 10}, 2};  // same cell at level 2 (side 4): cells (2,2)
  EXPECT_EQ(g.cell_id(a, 2), g.cell_id(b, 2));
  EXPECT_NE(g.cell_id(a, 0), g.cell_id(b, 0));
}

TEST(GridHierarchy, DistinctCellsDistinctIds) {
  const GridHierarchy g(16, 2);
  // All level-1 cells must have unique ids.
  std::vector<std::uint64_t> ids;
  for (std::int64_t x = 0; x < 16; x += 2)
    for (std::int64_t y = 0; y < 16; y += 2)
      ids.push_back(g.cell_id(GridPoint{{x, y}, 2}, 1));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), 64u);
}

TEST(GridHierarchy, CellCenterRoundTrip) {
  const GridHierarchy g(64, 3);
  const GridPoint p{{13, 50, 7}, 3};
  for (int level = 0; level < g.levels(); ++level) {
    const auto id = g.cell_id(p, level);
    const Point center = g.cell_center(id, level);
    // The center must lie inside the cell containing p.
    const double side = static_cast<double>(g.cell_side(level));
    for (int i = 0; i < 3; ++i) {
      const double cell_lo =
          std::floor(static_cast<double>(p.c[static_cast<std::size_t>(i)]) / side) * side;
      EXPECT_GE(center[i], cell_lo);
      EXPECT_LE(center[i], cell_lo + side);
    }
    // Center distance to the point is at most (side/2)·dim in L∞ terms.
    EXPECT_LE(std::abs(center[0] - static_cast<double>(p.c[0])), side);
  }
}

TEST(GridHierarchy, CellCornerMatchesId) {
  const GridHierarchy g(32, 2);
  const GridPoint p{{21, 9}, 2};
  for (int level = 0; level < g.levels(); ++level) {
    const auto id = g.cell_id(p, level);
    // The lower corner, recovered exactly from the center (integer sides).
    const Point center = g.cell_center(id, level);
    const double half = 0.5 * static_cast<double>(g.cell_side(level));
    GridPoint corner{{}, 2};
    for (int i = 0; i < 2; ++i)
      corner.c[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(center[i] - half);
    EXPECT_EQ(g.cell_id(corner, level), id);
    for (int i = 0; i < 2; ++i) {
      EXPECT_LE(corner.c[static_cast<std::size_t>(i)], p.c[static_cast<std::size_t>(i)]);
      EXPECT_GT(corner.c[static_cast<std::size_t>(i)] + g.cell_side(level),
                p.c[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(GridHierarchy, NonPowerOfTwoDelta) {
  const GridHierarchy g(100, 2);
  const GridPoint p{{99, 99}, 2};
  for (int level = 0; level < g.levels(); ++level) {
    const auto id = g.cell_id(p, level);
    EXPECT_LT(id, g.universe_size(level));
  }
}

TEST(GridHierarchy, FitsTheSixtyTwoBitCellId) {
  EXPECT_EQ(GridHierarchy::axis_bits(2), 1);
  EXPECT_EQ(GridHierarchy::axis_bits(256), 8);
  EXPECT_EQ(GridHierarchy::axis_bits(257), 9);
  EXPECT_TRUE(GridHierarchy::fits(256, 7));    // 56 bits
  EXPECT_FALSE(GridHierarchy::fits(256, 8));   // 64
  EXPECT_FALSE(GridHierarchy::fits(100000, 4));  // 4 · 17 = 68
  EXPECT_TRUE(GridHierarchy::fits(std::int64_t{1} << 62, 1));
  EXPECT_FALSE(GridHierarchy::fits((std::int64_t{1} << 62) + 1, 1));
  EXPECT_FALSE(
      GridHierarchy::fits(std::numeric_limits<std::int64_t>::max(), 1));
  EXPECT_FALSE(GridHierarchy::fits(1, 1));
}

TEST(SnapToGrid, RoundsAndClamps) {
  const GridPoint g = snap_to_grid(Point{3.4, 7.6}, 8);
  EXPECT_EQ(g.c[0], 3);
  EXPECT_EQ(g.c[1], 7);  // 7.6 rounds to 8, clamps to Δ−1 = 7
  const GridPoint h = snap_to_grid(Point{-2.0, 3.0}, 8);
  EXPECT_EQ(h.c[0], 0);
}

}  // namespace
}  // namespace kc
