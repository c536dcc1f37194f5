// Differential tests of the constant-time streaming insert paths against the
// reference copies in stream_reference.hpp: the ring-buffered sliding-window
// clusters with their running record count, and the insertion-only
// coreset's GreedyCover (its scan and its grid probe).  After every arrival
// the library and the reference must agree on every output, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stream/insertion_only.hpp"
#include "stream/sliding_window.hpp"
#include "stream_reference.hpp"
#include "test_support.hpp"

namespace kc::stream {
namespace {

constexpr Norm kNorms[] = {Norm::L1, Norm::L2, Norm::Linf};

std::string label(Norm norm, int dim, std::int64_t z) {
  const char* name = norm == Norm::L1 ? "L1" : norm == Norm::L2 ? "L2" : "Linf";
  return std::string(name) + " d=" + std::to_string(dim) +
         " z=" + std::to_string(z);
}

::testing::AssertionResult same_set(const WeightedSet& got,
                                    const WeightedSet& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(got[i].p == want[i].p) || got[i].w != want[i].w)
      return ::testing::AssertionFailure() << "entry " << i << " differs";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_query(
    const SlidingWindow::QueryResult& got,
    const reference::SlidingWindow::QueryResult& want) {
  if (got.level != want.level)
    return ::testing::AssertionFailure()
           << "level " << got.level << " vs " << want.level;
  if (got.guess != want.guess || got.cover_radius != want.cover_radius)
    return ::testing::AssertionFailure() << "guess or cover_radius differs";
  return same_set(got.coreset, want.coreset);
}

::testing::AssertionResult same_stream(
    const InsertionOnlyStream& got,
    const reference::InsertionOnlyStream& want) {
  if (got.r() != want.r() || got.doublings() != want.doublings() ||
      got.peak_size() != want.peak_size())
    return ::testing::AssertionFailure()
           << "r " << got.r() << " vs " << want.r() << ", doublings "
           << got.doublings() << " vs " << want.doublings() << ", peak "
           << got.peak_size() << " vs " << want.peak_size();
  return same_set(got.coreset(), want.coreset());
}

/// A tight burst (so the insertion-only bootstrap radius is small and the
/// stream must double it), then a drifting cluster with jitter, points
/// spread over the box, and exact repeats of recent points.
std::vector<Point> random_stream(std::size_t n, int dim, double side,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  Point center(dim, side / 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform_real(0.0, 1.0);
    Point p(dim);
    if (i < 8) {
      p = center;
      p[0] += static_cast<double>(i) * 1e-4 * side;
    } else if (u < 0.1) {
      p = pts[pts.size() - 1 -
              rng.uniform(std::min<std::size_t>(pts.size(), 8))];
    } else if (u < 0.3) {
      for (int j = 0; j < dim; ++j) p[j] = rng.uniform_real(0.0, side);
    } else {
      for (int j = 0; j < dim; ++j) {
        center[j] += rng.uniform_real(-0.05, 0.05) * side;
        p[j] = center[j] + rng.uniform_real(-0.02, 0.02) * side;
      }
    }
    pts.push_back(p);
  }
  return pts;
}

/// Points on the lattice s·Z^d inside a side^d box: every site once in
/// random order, then random repeats.  The first two are the origin and
/// s·e1, so the insertion-only bootstrap distance is s and its join radius
/// (ε/2)·r passes through exact lattice multiples.
std::vector<Point> lattice_stream(std::size_t n, int dim, double s, int side,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> sites;
  std::vector<int> idx(static_cast<std::size_t>(dim), 0);
  for (;;) {
    Point p(dim);
    for (int j = 0; j < dim; ++j)
      p[j] = static_cast<double>(idx[static_cast<std::size_t>(j)]) * s;
    sites.push_back(p);
    int j = 0;
    while (j < dim && ++idx[static_cast<std::size_t>(j)] == side)
      idx[static_cast<std::size_t>(j++)] = 0;
    if (j == dim) break;
  }
  // sites[0] is the origin and sites[1] is s·e1; shuffle the rest.
  for (std::size_t i = sites.size(); i > 3; --i)
    std::swap(sites[i - 1], sites[2 + rng.uniform(i - 2)]);
  std::vector<Point> pts(sites.begin(),
                         sites.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(n, sites.size())));
  while (pts.size() < n) pts.push_back(sites[rng.uniform(sites.size())]);
  return pts;
}

/// Feeds both windows the same arrivals and compares after each one;
/// returns the level of the last query.  Arrival i comes at time i + 1,
/// and `pause` time units later from arrival `pause_at` on.
int drive_windows(SlidingWindow& sw, reference::SlidingWindow& ref,
                  const std::vector<Point>& pts,
                  std::size_t pause_at = SIZE_MAX, std::int64_t pause = 0) {
  int level = -1;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto t =
        static_cast<std::int64_t>(i) + 1 + (i >= pause_at ? pause : 0);
    sw.insert(pts[i], t);
    ref.insert(pts[i], t);
    const auto got = sw.query(t);
    EXPECT_TRUE(same_query(got, ref.query(t))) << "arrival " << t;
    EXPECT_EQ(sw.stored_records(), ref.stored_records()) << "arrival " << t;
    EXPECT_EQ(sw.peak_records(), ref.peak_records()) << "arrival " << t;
    if (::testing::Test::HasFailure()) break;
    level = got.level;
  }
  return level;
}

/// Feeds both insertion-only streams the same weighted arrivals.
void drive_streams(InsertionOnlyStream& s, reference::InsertionOnlyStream& ref,
                   const std::vector<Point>& pts, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::int64_t w = rng.uniform_int(1, 3);
    s.insert_weighted(pts[i], w);
    ref.insert_weighted(pts[i], w);
    ASSERT_TRUE(same_stream(s, ref)) << "arrival " << i;
  }
}

TEST(StreamDifferential, SlidingWindowMatchesReferenceOnRandomStreams) {
  for (const Norm norm : kNorms)
    for (int dim = 1; dim <= 3; ++dim)
      for (const std::int64_t z : {0, 1, 7})
        for (const std::int64_t window : {1, 5, 64}) {
          SCOPED_TRACE(label(norm, dim, z) + " W=" + std::to_string(window));
          const Metric metric{norm};
          SlidingWindow sw(2, z, 0.5, dim, window, 0.05, 40.0, metric);
          reference::SlidingWindow ref(2, z, 0.5, dim, window, 0.05, 40.0,
                                       metric);
          drive_windows(sw, ref, random_stream(300, dim, 20.0, 11 + dim));
          if (HasFailure()) return;
        }
}

TEST(StreamDifferential, SlidingWindowMatchesReferenceThroughEvictions) {
  // k = 1, ε = 1, d = 1: cap = 16 + z clusters per level, far below the
  // spread of the stream, so the low levels overflow, evict their stalest
  // cluster and turn unsafe.  With W = n + 1 nothing expires: eviction
  // keeps level 0 within its cap, so a final query above level 0 means the
  // level was marked unsafe by an eviction.
  const std::size_t n = 400;
  const auto whole = static_cast<std::int64_t>(n) + 1;
  for (const Norm norm : kNorms)
    for (const std::int64_t z : {0, 1, 7})
      for (const std::int64_t window :
           {std::int64_t{5}, std::int64_t{64}, whole}) {
        SCOPED_TRACE(label(norm, 1, z) + " W=" + std::to_string(window));
        const Metric metric{norm};
        SlidingWindow sw(1, z, 1.0, 1, window, 0.5, 4000.0, metric);
        reference::SlidingWindow ref(1, z, 1.0, 1, window, 0.5, 4000.0, metric);
        const int level =
            drive_windows(sw, ref, random_stream(n, 1, 2000.0, 21));
        if (HasFailure()) return;
        if (window == whole) {
          EXPECT_GT(level, 0);
        }
      }
}

TEST(StreamDifferential, SlidingWindowMatchesReferenceOnJoinRadiusLattice) {
  // r_min = s and ε = 1: level ℓ joins within s·2^ℓ, so lattice neighbours
  // sit at exactly the join radius.
  for (const Norm norm : kNorms)
    for (int dim = 1; dim <= 3; ++dim)
      for (const double s : {1.0, 0.1})
        for (const std::int64_t window : {5, 64}) {
          SCOPED_TRACE(label(norm, dim, 2) + " s=" + std::to_string(s) +
                       " W=" + std::to_string(window));
          const Metric metric{norm};
          SlidingWindow sw(2, 2, 1.0, dim, window, s, 16.0 * s, metric);
          reference::SlidingWindow ref(2, 2, 1.0, dim, window, s, 16.0 * s,
                                       metric);
          drive_windows(sw, ref, lattice_stream(300, dim, s, 8, 31));
          if (HasFailure()) return;
        }
}

TEST(StreamDifferential, SlidingWindowMatchesReferenceOnDriftingStreams) {
  // Drifting clusters keep founding fresh clusters at the low levels while
  // older ones fall out of the window, so clusters expire at irregular
  // times: W = 16 sweeps on most arrivals, W = 2000 rarely.  Halfway
  // through, time pauses for W + 5 units, so every cluster of every level
  // expires on one arrival and each level refills from that arrival's
  // cluster.
  for (const Norm norm : kNorms)
    for (int dim = 1; dim <= 3; ++dim) {
      PlantedConfig cfg;
      cfg.n = 5000;
      cfg.k = 3;
      cfg.z = 10;
      cfg.dim = dim;
      cfg.norm = norm;
      cfg.seed = 70 + static_cast<std::uint64_t>(dim);
      const PlantedInstance inst = make_drifting(cfg);
      std::vector<Point> pts;
      for (const auto& wp : inst.points) pts.push_back(wp.p);
      for (const std::int64_t window : {16, 300, 2000}) {
        SCOPED_TRACE(label(norm, dim, cfg.z) + " W=" + std::to_string(window));
        const Metric metric{norm};
        SlidingWindow sw(cfg.k, cfg.z, 0.5, dim, window, 0.25, 400.0, metric);
        reference::SlidingWindow ref(cfg.k, cfg.z, 0.5, dim, window, 0.25,
                                     400.0, metric);
        drive_windows(sw, ref, pts, pts.size() / 2, window + 5);
        if (HasFailure()) return;
      }
    }
}

/// k by dimension for the insertion-only differentials: at ε = 1 the
/// thresholds k·16^d + z are 400 + z, 1280 + z and 4096 + z, past the
/// cover's scan→grid switch (384, 1152 and 3456 reps), so a stream that
/// recompresses has run both probes.
constexpr int kStreamK[] = {0, 25, 5, 1};

TEST(StreamDifferential, InsertionOnlyMatchesReferenceOnRandomStreams) {
  for (const Norm norm : kNorms)
    for (int dim = 1; dim <= 3; ++dim)
      for (const std::int64_t z : {0, 1, 7}) {
        SCOPED_TRACE(label(norm, dim, z));
        const Metric metric{norm};
        const int k = kStreamK[dim];
        InsertionOnlyStream s(k, z, 1.0, dim, metric);
        reference::InsertionOnlyStream ref(k, z, 1.0, dim, metric);
        const std::size_t n = dim == 3 ? 5000 : 2000;
        drive_streams(s, ref, random_stream(n, dim, 100.0, 41 + dim), 7);
        if (HasFailure()) return;
        EXPECT_GT(s.doublings(), 0);
        EXPECT_GT(s.peak_size(), GreedyCover::grid_switch(dim));
      }
}

TEST(StreamDifferential, InsertionOnlyMatchesReferenceOnJoinRadiusLattice) {
  // The bootstrap distance is s, so with ε = 1 the join radius is
  // s·2^(doublings − 2): lattice neighbours tie with it exactly once two
  // doublings have happened, and the lattice points sit on the grid
  // probe's cell boundaries throughout.
  for (const Norm norm : kNorms)
    for (int dim = 1; dim <= 3; ++dim)
      for (const double s : {1.0, 0.1, 3.0}) {
        SCOPED_TRACE(label(norm, dim, 0) + " s=" + std::to_string(s));
        const Metric metric{norm};
        InsertionOnlyStream st(kStreamK[dim], 0, 1.0, dim, metric);
        reference::InsertionOnlyStream ref(kStreamK[dim], 0, 1.0, dim, metric);
        // Each d needs its threshold's worth of distinct sites before its
        // first recompression.
        const int side = dim == 1 ? 1000 : dim == 2 ? 60 : 17;
        const std::size_t n = dim == 3 ? 4400 : 2000;
        drive_streams(st, ref, lattice_stream(n, dim, s, side, 51), 9);
        if (HasFailure()) return;
        EXPECT_GE(st.doublings(), 2);
        EXPECT_GT(st.peak_size(), GreedyCover::grid_switch(dim));
      }
}

TEST(StreamDifferential, InsertionOnlyBaselinePolicy) {
  // A k = 1, z = 2, ε = 1 summary stays small under the paper's threshold;
  // the Ceccarello threshold keeps |P*| larger for longer, so more
  // arrivals take the grid probe.
  const Metric l2{Norm::L2};
  InsertionOnlyStream s(1, 2, 1.0, 2, l2);
  reference::InsertionOnlyStream ref(1, 2, 1.0, 2, l2);
  drive_streams(s, ref, random_stream(1500, 2, 100.0, 71), 4);

  InsertionOnlyStream cs(2, 5, 0.5, 2, l2, ThresholdPolicy::Ceccarello);
  reference::InsertionOnlyStream cref(2, 5, 0.5, 2, l2,
                                      ThresholdPolicy::Ceccarello);
  drive_streams(cs, cref, random_stream(4000, 2, 100.0, 72), 5);
}

}  // namespace
}  // namespace kc::stream
