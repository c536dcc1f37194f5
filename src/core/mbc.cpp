#include "core/mbc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/gonzalez.hpp"
#include "geometry/grid_index.hpp"
#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Rep count at which the covering pass switches from the early-exit linear
// scan to grid probes.  The scan touches first-hit-position inline
// distances per point (cheap, and small while reps are few); a grid probe
// costs 3^d hash lookups regardless, so it only wins once the rep set is
// large.  Switching mid-pass is output-invariant: both sides assign to the
// lowest-index representative within the radius.
constexpr std::size_t kGridSwitchReps = 256;

// Covering pass with grid acceleration: once the rep set reaches
// kGridSwitchReps, representatives are indexed in a hash grid with cell
// width = radius, so each point probes only the 3^d neighboring cells
// instead of scanning every representative.  Both phases assign to the
// *lowest-index* representative within the radius — the first hit of a
// scan in rep order.  At radius 0 the grid never switches on (it needs a
// positive width) and the scan joins exact duplicates only.
template <Norm N>
MiniBallCovering mbc_hybrid_impl(const WeightedSet& pts, double radius) {
  MiniBallCovering out;
  out.cover_radius = radius;
  if (pts.empty()) return out;
  out.assignment.reserve(pts.size());
  const double key = kernels::dist_to_key(N, radius);
  const int dim = pts.front().p.dim();
  const bool use_grid = radius > 0.0;

  // SoA mirror of the rep coordinates for the pre-grid phase: the
  // "first rep within radius" probe runs through the blocked vectorized
  // scan.  Not maintained once the grid takes over.
  kernels::PointBuffer repbuf(dim);
  repbuf.reserve(std::min(kGridSwitchReps, pts.size()));

  std::optional<GridIndex> grid;
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  for (const auto& wp : pts) {
    KC_EXPECTS(wp.w > 0);
    const double* q = wp.p.coords().data();
    std::uint32_t best = kNone;
    if (grid) {
      grid->for_each_candidate(q, 1,
                               [&](std::span<const std::uint32_t> cell) {
                                 for (const std::uint32_t r : cell) {
                                   if (r < best &&
                                       kernels::raw_key<N>(
                                           q, out.reps[r].p.coords().data(),
                                           dim) <= key)
                                     best = r;
                                 }
                               });
    } else {
      const std::size_t hit = kernels::first_within<N>(repbuf, q, key);
      if (hit < repbuf.size()) best = static_cast<std::uint32_t>(hit);
    }
    if (best != kNone) {
      out.reps[best].w += wp.w;
      out.assignment.push_back(best);
      continue;
    }
    const auto id = static_cast<std::uint32_t>(out.reps.size());
    out.assignment.push_back(id);
    out.reps.push_back(wp);
    if (grid) {
      grid->insert(q, id);
    } else if (use_grid && out.reps.size() >= kGridSwitchReps) {
      grid.emplace(radius, dim);
      for (std::size_t r = 0; r < out.reps.size(); ++r)
        grid->insert(out.reps[r].p, static_cast<std::uint32_t>(r));
    } else {
      repbuf.append(q);
    }
  }
  return out;
}

}  // namespace

MiniBallCovering mbc_with_radius(const WeightedSet& pts, double radius,
                                 const Metric& metric) {
  KC_EXPECTS(radius >= 0.0);
  return kernels::with_norm(metric.norm(), [&]<Norm N>() {
    return mbc_hybrid_impl<N>(pts, radius);
  });
}

MiniBallCovering mbc_construct(const WeightedSet& pts, int k, std::int64_t z,
                               double eps, const Metric& metric,
                               const OracleOptions& oracle) {
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  if (pts.empty()) return {};
  const RadiusEstimate est = estimate_radius(pts, k, z, metric, oracle);
  // Mini-ball radius ε·r/ρ ≤ ε·opt (covering property); since r ≥ opt the
  // representatives are pairwise > (ε/ρ)·opt apart, giving the Lemma-7 size
  // bound k(4ρ/ε)^d + z.
  MiniBallCovering out =
      mbc_with_radius(pts, eps * est.radius / est.rho, metric);
  out.oracle_radius = est.radius;
  out.rho = est.rho;
  return out;
}

MiniBallCovering mbc_via_gonzalez(const WeightedSet& pts, int k,
                                  std::int64_t z, double eps,
                                  const Metric& metric) {
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  if (pts.empty()) return {};
  const int dim = pts.front().p.dim();
  const std::int64_t tau = summary_center_budget(k, z, eps, dim);
  const GonzalezResult g = gonzalez(
      pts, static_cast<int>(std::min<std::int64_t>(
               tau, static_cast<std::int64_t>(pts.size()))),
      metric);
  MiniBallCovering out;
  out.reps = gonzalez_summary(pts, g);
  out.assignment = g.assignment;
  out.cover_radius = g.delta.back();
  out.rho = 1.0;  // oracle-free
  return out;
}

double mbc_size_bound(int k, std::int64_t z, double eps, double rho, int dim) {
  return static_cast<double>(k) * std::pow(4.0 * rho / eps, dim) +
         static_cast<double>(z);
}

WeightedSet merge_coresets(const std::vector<WeightedSet>& parts) {
  WeightedSet out;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace kc
