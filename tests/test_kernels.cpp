// The performance layer's correctness contract (geometry/kernels.hpp,
// geometry/grid_index.hpp): inline kernels are bit-identical to the Metric
// scalar path, the grid index yields a superset of every ball query (the
// same spans, in the same order, as the map-based reference), and
// the grid-accelerated hot paths (mbc_with_radius, charikar_run) produce
// exactly the same output as the scalar references (core_reference.hpp)
// across norms and dimensions.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/charikar.hpp"
#include "core/mbc.hpp"
#include "core_reference.hpp"
#include "geometry/grid_index.hpp"
#include "geometry/kernels.hpp"
#include "geometry/metric.hpp"
#include "util/rng.hpp"

namespace kc {
namespace {

// Random weighted points on a coarse lattice: quantized coordinates make
// exact-tie and exactly-on-the-boundary distances common, which is where a
// sloppy reimplementation would diverge from the reference.  Coordinates
// are multiples of 0.25 in [-half/4, half/4].
WeightedSet lattice_points(std::size_t n, int dim, std::uint64_t seed,
                           int half = 20) {
  Rng rng(seed);
  WeightedSet pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (int j = 0; j < dim; ++j)
      p[j] = 0.25 * static_cast<double>(rng.uniform_int(-half, half));
    pts.push_back({p, static_cast<std::int64_t>(rng.uniform(5)) + 1});
  }
  return pts;
}

const Norm kNorms[] = {Norm::L2, Norm::Linf, Norm::L1};

TEST(Kernels, DistKeyMatchesMetricExactly) {
  Rng rng(7);
  for (const Norm norm : kNorms) {
    const Metric metric{norm};
    for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
      for (int rep = 0; rep < 50; ++rep) {
        Point a(dim), b(dim);
        for (int j = 0; j < dim; ++j) {
          a[j] = rng.uniform_real(-10.0, 10.0);
          b[j] = rng.uniform_real(-10.0, 10.0);
        }
        const double key = kernels::dist_key(norm, a.coords().data(),
                                             b.coords().data(), dim);
        // Bit-identical, not just close: the grid paths rely on exact
        // threshold agreement with the scalar code.
        EXPECT_EQ(key, metric.dist_key(a, b));
        EXPECT_EQ(metric.key_to_dist(key), metric.dist(a, b));
      }
    }
  }
}

TEST(Kernels, PointBufferKeysMatchScalar) {
  const int dim = 3;
  const WeightedSet pts = lattice_points(200, dim, 11);
  const kernels::PointBuffer buf(pts);
  ASSERT_EQ(buf.size(), pts.size());
  ASSERT_EQ(buf.dim(), dim);
  const Point q{1.25, -0.5, 3.0};
  for (const Norm norm : kNorms) {
    const Metric metric{norm};
    std::vector<double> batch(pts.size());
    switch (norm) {
      case Norm::L2:
        kernels::compute_keys<Norm::L2>(buf, q.coords().data(), batch.data());
        break;
      case Norm::Linf:
        kernels::compute_keys<Norm::Linf>(buf, q.coords().data(),
                                          batch.data());
        break;
      default:
        kernels::compute_keys<Norm::L1>(buf, q.coords().data(), batch.data());
        break;
    }
    for (std::size_t i = 0; i < pts.size(); ++i)
      EXPECT_EQ(batch[i], metric.dist_key(pts[i].p, q))
          << metric.name() << " point " << i;
  }
}

TEST(Kernels, RelaxMinKeysMatchesScalarSweep) {
  const int dim = 2;
  const WeightedSet pts = lattice_points(300, dim, 13);
  const Metric metric{Norm::L2};
  const kernels::PointBuffer buf(pts);
  const std::size_t n = pts.size();

  std::vector<double> keys(n, std::numeric_limits<double>::infinity());
  std::vector<double> ref_keys = keys;
  std::vector<std::uint32_t> assign(n, 0), ref_assign(n, 0);

  for (std::uint32_t label = 0; label < 5; ++label) {
    const Point& c = pts[label * 37].p;
    const kernels::RelaxResult rr = kernels::relax_min_keys<Norm::L2>(
        buf, c.coords().data(), label, keys.data(), assign.data());
    // Scalar reference sweep (the historical gonzalez inner loop).
    double far_key = -1.0;
    std::size_t far_idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double k2 = metric.dist_key(pts[i].p, c);
      if (k2 < ref_keys[i]) {
        ref_keys[i] = k2;
        ref_assign[i] = label;
      }
      if (ref_keys[i] > far_key) {
        far_key = ref_keys[i];
        far_idx = i;
      }
    }
    EXPECT_EQ(rr.far_idx, far_idx);
    EXPECT_EQ(rr.far_key, far_key);
    EXPECT_EQ(keys, ref_keys);
    EXPECT_EQ(assign, ref_assign);
  }
}

TEST(GridIndex, CandidatesAreASupersetOfEveryBall) {
  for (const Norm norm : kNorms) {
    const Metric metric{norm};
    for (int dim = 1; dim <= 3; ++dim) {
      const WeightedSet pts = lattice_points(150, dim, 17 + dim);
      for (const double radius : {0.25, 0.8, 2.0}) {
        GridIndex grid(radius, dim);
        for (std::size_t i = 0; i < pts.size(); ++i)
          grid.insert(pts[i].p, static_cast<std::uint32_t>(i));
        for (std::size_t qi = 0; qi < pts.size(); qi += 7) {
          std::vector<bool> seen(pts.size(), false);
          std::size_t yielded = 0;
          grid.for_each_candidate(
              pts[qi].p.coords().data(), grid.reach_for(radius),
              [&](std::span<const std::uint32_t> cell) {
                for (std::size_t c = 1; c < cell.size(); ++c)
                  EXPECT_LT(cell[c - 1], cell[c]) << "cell not ascending";
                for (const std::uint32_t j : cell) {
                  EXPECT_FALSE(seen[j]) << "index yielded twice";
                  seen[j] = true;
                  ++yielded;
                }
              });
          for (std::size_t j = 0; j < pts.size(); ++j) {
            if (metric.dist(pts[qi].p, pts[j].p) <= radius) {
              EXPECT_TRUE(seen[j])
                  << metric.name() << " d=" << dim << " r=" << radius
                  << ": point " << j << " within radius but not yielded";
            }
          }
          (void)yielded;
        }
      }
    }
  }
}

// Every span a grid yields for one query, in order.
template <typename Grid>
std::vector<std::vector<std::uint32_t>> spans_of(const Grid& grid,
                                                 const double* q, int reach) {
  std::vector<std::vector<std::uint32_t>> out;
  grid.for_each_candidate(q, reach, [&](std::span<const std::uint32_t> cell) {
    out.emplace_back(cell.begin(), cell.end());
  });
  return out;
}

// Indexes `pts` in both grids and compares the exact span sequence of
// random queries at every reach up to max_reach.
void expect_same_spans(const std::vector<Point>& pts, double width, int dim,
                       int max_reach, std::uint64_t seed) {
  GridIndex grid(width, dim);
  reference::GridIndexMap ref(width, dim);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    grid.insert(pts[i], static_cast<std::uint32_t>(i));
    ref.insert(pts[i].coords().data(), static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(grid.size(), pts.size());
  Rng rng(seed);
  for (int qi = 0; qi < 40; ++qi) {
    // Half the queries sit on an indexed point, half anywhere in its box.
    Point q = pts[rng.uniform(pts.size())];
    if (qi % 2 == 1)
      for (int j = 0; j < dim; ++j) q[j] += rng.uniform_real(-2.0, 2.0) * width;
    for (int reach = 0; reach <= max_reach; ++reach) {
      const auto got = spans_of(grid, q.coords().data(), reach);
      ASSERT_EQ(got, spans_of(ref, q.coords().data(), reach))
          << "d=" << dim << " width=" << width << " query " << qi
          << " reach " << reach;
    }
  }
}

TEST(GridIndex, YieldsTheSameSpansAsTheMapReference) {
  // Scattered points give every d at least 10k distinct cells, so the table
  // doubles from its first 16 slots ten times; a dense block at negative
  // and positive coordinates puts several points in a cell, and exact
  // repeats of earlier points land in the cell that holds them.  At
  // width 1e-150 every coordinate of ±1e150 clamps to a ±2^61 cell, next
  // to unclamped cells a few widths from the origin.
  for (const int dim : {1, 2, 3, 5, 8}) {
    SCOPED_TRACE("d=" + std::to_string(dim));
    // (2·reach+1)^d lookups per query: d = 8 stops at 3^8.
    const int max_reach = dim == 8 ? 1 : 3;
    Rng rng(900 + static_cast<std::uint64_t>(dim));
    std::vector<Point> pts;
    for (int i = 0; i < 12000; ++i) {
      Point p(dim);
      for (int j = 0; j < dim; ++j) p[j] = rng.uniform_real(-1e5, 1e5);
      pts.push_back(p);
    }
    for (int i = 0; i < 3000; ++i) {
      Point p(dim);
      for (int j = 0; j < dim; ++j) p[j] = rng.uniform_real(-3.0, 3.0);
      pts.push_back(p);
    }
    for (int i = 0; i < 1000; ++i) pts.push_back(pts[rng.uniform(pts.size())]);
    std::set<std::vector<double>> cells;
    for (const Point& p : pts) {
      std::vector<double> c;
      for (int j = 0; j < dim; ++j) c.push_back(std::floor(p[j]));
      cells.insert(c);
    }
    ASSERT_GE(cells.size(), 10000u);
    expect_same_spans(pts, 1.0, dim, max_reach, 41);
    if (HasFatalFailure()) return;

    std::vector<Point> extreme;
    for (int i = 0; i < 600; ++i) {
      Point p(dim);
      for (int j = 0; j < dim; ++j) {
        const std::uint64_t pick = rng.uniform(3);
        const double near = static_cast<double>(rng.uniform_int(-3, 3));
        p[j] = pick == 0 ? 1e150 : pick == 1 ? -1e150 : near * 1e-150;
      }
      extreme.push_back(p);
    }
    expect_same_spans(extreme, 1e-150, dim, max_reach, 43);
    if (HasFatalFailure()) return;
  }
}

void expect_same_covering(const MiniBallCovering& got,
                          const MiniBallCovering& want) {
  ASSERT_EQ(got.reps.size(), want.reps.size());
  for (std::size_t r = 0; r < want.reps.size(); ++r) {
    EXPECT_EQ(got.reps[r].p, want.reps[r].p) << "rep " << r;
    EXPECT_EQ(got.reps[r].w, want.reps[r].w) << "rep " << r;
  }
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.cover_radius, want.cover_radius);
}

TEST(GridEquivalence, MbcWithRadiusMatchesScalarReference) {
  // Each d up to 4 gets sparse points wide enough that every radius > 0
  // grows the covering past the cover's scan→grid switch, then a dense
  // block whose points each lie within the radius of several
  // representatives in different grid cells, so the grid probe must pick
  // the lowest index among them.  At d = 5 and 8 the switch (31104 and
  // 839808 reps) is out of reach, so these run the scan alone.
  struct Case {
    int dim;
    std::size_t n;
    int half;
    std::uint64_t seeds;
    std::vector<double> radii;
  };
  // 0.25-quantized coordinates make 0.5 / 1.0 exact-boundary radii; r = 0
  // joins exact duplicates only and never builds a grid.  d = 3 and 4 run
  // one seed and fewer radii: their reference passes are the slow ones.
  const std::vector<double> all = {0.0, 0.5, 1.0, 2.75};
  const Case cases[] = {{1, 1200, 40000, 3, all},
                        {2, 1600, 1000, 3, all},
                        {3, 4000, 400, 1, {0.5, 2.75}},
                        {4, 11000, 400, 1, {2.75}},
                        {5, 1200, 160, 1, all},
                        {8, 1200, 160, 1, all}};
  for (const Norm norm : kNorms) {
    const Metric metric{norm};
    for (const Case& c : cases) {
      const std::size_t grid_switch = GreedyCover::grid_switch(c.dim);
      for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
        WeightedSet pts = lattice_points(c.n, c.dim, seed * 101, c.half);
        const WeightedSet dense = lattice_points(400, c.dim, seed * 103, 12);
        pts.insert(pts.end(), dense.begin(), dense.end());
        for (const double radius : c.radii) {
          SCOPED_TRACE(std::string(metric.name()) + " d=" +
                       std::to_string(c.dim) + " r=" + std::to_string(radius));
          const MiniBallCovering ref =
              reference::mbc_with_radius_scalar(pts, radius, metric);
          if (c.dim >= 5) {
            EXPECT_LT(ref.reps.size(), grid_switch);
          } else if (radius > 0.0) {
            EXPECT_GT(ref.reps.size(), grid_switch);
          }
          expect_same_covering(mbc_with_radius(pts, radius, metric), ref);
        }
      }
    }
  }
}

TEST(GridEquivalence, CharikarRunMatchesScalarReference) {
  // The grid pass runs at every n and every r ≥ 0: r = 0 counts exact
  // duplicates only (cell width 1), so the half-width-2 lattice, dense in
  // duplicates, covers it; n = 5 and 31 are the sizes the pass once left to
  // the scalar rescan.  Where a neighborhood's (2·reach+1)^d cells
  // outnumber the points (small n, and every n here at d = 8) the pass
  // scans all points instead of the cells.
  for (const Norm norm : kNorms) {
    const Metric metric{norm};
    const CharikarRun none = charikar_run({}, 2, 0, 0.5, metric);
    EXPECT_TRUE(none.centers.empty() && none.uncovered == 0 && none.success);
    for (const int dim : {1, 2, 3, 8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const std::size_t n : {5u, 31u, 300u}) {
          for (const int half : {2, 20}) {
            const WeightedSet pts =
                lattice_points(n, dim, seed * 211, half);
            for (const int k : {1, 3}) {
              for (const std::int64_t z : {0LL, 25LL}) {
                for (const double r : {0.0, 0.25, 0.75, 3.0}) {
                  const CharikarRun grid = charikar_run(pts, k, z, r, metric);
                  const CharikarRun ref =
                      reference::charikar_run_scalar(pts, k, z, r, metric);
                  SCOPED_TRACE(std::string(metric.name()) + " d=" +
                               std::to_string(dim) + " n=" +
                               std::to_string(n) + " half=" +
                               std::to_string(half) + " k=" +
                               std::to_string(k) + " z=" + std::to_string(z) +
                               " r=" + std::to_string(r));
                  ASSERT_EQ(grid.centers.size(), ref.centers.size());
                  for (std::size_t c = 0; c < ref.centers.size(); ++c)
                    EXPECT_EQ(grid.centers[c], ref.centers[c])
                        << "center " << c;
                  EXPECT_EQ(grid.uncovered, ref.uncovered);
                  EXPECT_EQ(grid.success, ref.success);
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kc
