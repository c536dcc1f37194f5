#include "core/mbc.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/gonzalez.hpp"
#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

GreedyCover::GreedyCover(double radius, int dim, const Metric& metric)
    : dim_(dim), norm_(metric.norm()) {
  set_radius(radius);
}

std::size_t GreedyCover::grid_switch(int dim) noexcept {
  std::size_t cells = 1;
  for (int j = 0; j < dim; ++j) cells *= 3;
  return kCoverGridFactor * cells;
}

void GreedyCover::set_radius(double radius) {
  KC_EXPECTS(radius >= 0.0);
  radius_ = radius;
  key_ = kernels::dist_to_key(norm_, radius);
  rebuild_probe();
}

void GreedyCover::rebuild_probe() {
  grid_.reset();
  scan_ = kernels::PointBuffer(dim_);
  if (grid_due()) {
    grid_.emplace(radius_, dim_);
    grid_->reserve(reps_.size());
    for (std::size_t i = 0; i < reps_.size(); ++i)
      grid_->insert(reps_[i].p, static_cast<std::uint32_t>(i));
  } else {
    scan_.reserve(reps_.size());
    for (const auto& rep : reps_) scan_.append(rep.p);
  }
}

// Lowest rep index within the radius of q, or reps_.size().  A grid cell
// lists its reps in ascending index order, so the scan of a cell stops at
// its first hit or at the best index found so far.
template <Norm N>
std::uint32_t GreedyCover::probe(const double* q) const {
  if (!grid_) {
    return static_cast<std::uint32_t>(
        kernels::first_within<N>(scan_, q, key_));
  }
  auto best = static_cast<std::uint32_t>(reps_.size());
  grid_->for_each_candidate(q, 1, [&](std::span<const std::uint32_t> cell) {
    for (const std::uint32_t i : cell) {
      if (i >= best) break;
      if (kernels::raw_key<N>(q, reps_[i].p.coords().data(), dim_) <= key_) {
        best = i;
        break;
      }
    }
  });
  return best;
}

std::uint32_t GreedyCover::add(const Point& p, std::int64_t w) {
  KC_EXPECTS(w > 0);
  KC_DCHECK(p.dim() == dim_);
  const double* q = p.coords().data();
  const std::uint32_t hit =
      kernels::with_norm(norm_, [&]<Norm N>() { return probe<N>(q); });
  if (hit < reps_.size()) {
    reps_[hit].w += w;
    return hit;
  }
  reps_.push_back({p, w});
  if (grid_) {
    grid_->insert(q, hit);
  } else if (grid_due()) {
    rebuild_probe();
  } else {
    scan_.append(q);
  }
  return hit;
}

MiniBallCovering mbc_with_radius(const WeightedSet& pts, double radius,
                                 const Metric& metric) {
  KC_EXPECTS(radius >= 0.0);
  MiniBallCovering out;
  out.cover_radius = radius;
  if (pts.empty()) return out;
  GreedyCover cover(radius, pts.front().p.dim(), metric);
  out.assignment.reserve(pts.size());
  for (const auto& wp : pts) out.assignment.push_back(cover.add(wp.p, wp.w));
  out.reps = std::move(cover).reps();
  return out;
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
