#include "stream/insertion_only.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "util/check.hpp"

namespace kc::stream {

bool parse_threshold_policy(const std::string& name,
                            ThresholdPolicy* out) noexcept {
  if (name == "ours") {
    *out = ThresholdPolicy::Ours;
    return true;
  }
  if (name == "ceccarello") {
    *out = ThresholdPolicy::Ceccarello;
    return true;
  }
  return false;
}

std::size_t stream_threshold(int k, std::int64_t z, double eps, int dim,
                             ThresholdPolicy policy) {
  // Saturate in double before each cast: at tiny ε, k(16/ε)^d is past the
  // range of size_t, where a cast is undefined.  A threshold larger than
  // any stream just means "never recompress".
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const auto to_size = [](double x) {
    return x < static_cast<double>(kMax) ? static_cast<std::size_t>(x) : kMax;
  };
  const double per_center = std::pow(16.0 / eps, dim);
  switch (policy) {
    case ThresholdPolicy::Ours: {
      const std::size_t centers = to_size(static_cast<double>(k) * per_center);
      const auto outliers = static_cast<std::size_t>(z);
      return centers > kMax - outliers ? kMax : centers + outliers;
    }
    case ThresholdPolicy::Ceccarello:
      return to_size((static_cast<double>(k) + static_cast<double>(z)) *
                     per_center);
  }
  return 0;  // unreachable
}

InsertionOnlyStream::InsertionOnlyStream(int k, std::int64_t z, double eps,
                                         int dim, const Metric& metric,
                                         ThresholdPolicy policy)
    : k_(k), z_(z), eps_(eps), dim_(dim), metric_(metric), reps_buf_(dim) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  threshold_ = stream_threshold(k, z, eps, dim, policy);
  for (int j = 0; j < dim; ++j) probe_cells_ *= 3;
  KC_EXPECTS(threshold_ >= static_cast<std::size_t>(k) + static_cast<std::size_t>(z) + 1);
}

void InsertionOnlyStream::insert_weighted(const Point& p, std::int64_t w) {
  KC_EXPECTS(w > 0);
  ++seen_;
  // Try to assign p to an existing representative within (ε/2)·r.  While
  // r == 0 this absorbs exact duplicates only.
  const double join = (eps_ / 2.0) * r_;
  const std::size_t hit =
      first_rep_within(p.coords().data(), join, metric_.dist_to_key(join));
  const bool placed = hit < reps_.size();
  if (placed) reps_[hit].w += w;
  if (!placed) {
    if (grid_) grid_->insert(p, static_cast<std::uint32_t>(reps_.size()));
    reps_.push_back({p, w});
    reps_buf_.append(p);
  }
  peak_ = std::max(peak_, reps_.size());

  // Bootstrap: first sensible lower bound once k+z+1 distinct points exist.
  // kc-lint-allow(numerics): r_ == 0.0 is the exact not-yet-bootstrapped
  // sentinel (set only by initialization, never by arithmetic).
  if (r_ == 0.0 &&
      reps_.size() >= static_cast<std::size_t>(k_) +
                          static_cast<std::size_t>(z_) + 1) {
    double min_key = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < reps_.size(); ++i)
      for (std::size_t j = i + 1; j < reps_.size(); ++j)
        min_key = std::min(min_key, metric_.dist_key(reps_[i].p, reps_[j].p));
    const double delta = metric_.key_to_dist(min_key);
    KC_ENSURES(delta > 0.0);  // P* never stores coinciding points
    r_ = delta / 2.0;
  }

  // Recompression loop: double r until the size drops below the threshold.
  while (reps_.size() >= threshold_) {
    KC_EXPECTS(r_ > 0.0);
    r_ *= 2.0;
    ++doublings_;
    const MiniBallCovering mbc =
        mbc_with_radius(reps_, (eps_ / 2.0) * r_, metric_);
    reps_ = mbc.reps;
    rebuild_reps_buf();
  }
}

namespace {

// First rep index i with key(q, reps[i]) ≤ join_key, or reps.size().
// Without a grid: the blocked scan of reps_buf.  With one: the smallest
// such index among the grid's candidates for q — every cell lists its reps
// in ascending index order, so the scan of a cell stops at its first hit.
template <Norm N>
std::size_t first_rep(const std::optional<GridIndex>& grid,
                      const WeightedSet& reps,
                      const kernels::PointBuffer& reps_buf, const double* q,
                      double join, double join_key) {
  if (!grid) return kernels::first_within<N>(reps_buf, q, join_key);
  std::size_t best = reps.size();
  const int dim = grid->dim();
  grid->for_each_candidate(
      q, grid->reach_for(join), [&](std::span<const std::uint32_t> cell) {
        for (const std::uint32_t i : cell) {
          if (i >= best) break;
          if (kernels::raw_key<N>(q, reps[i].p.coords().data(), dim) <=
              join_key) {
            best = i;
            break;
          }
        }
      });
  return best;
}

}  // namespace

std::size_t InsertionOnlyStream::first_rep_within(const double* q,
                                                  double join,
                                                  double join_key) {
  // Probe the grid once r > 0 and its 3^d cells are no more than |P*|;
  // otherwise (and while r == 0, where only exact duplicates join) scan.
  // The grid is built here on first use at this join radius and kept up to
  // date by appends until the radius or the rep set changes.
  if (r_ > 0.0 && probe_cells_ <= reps_.size()) {
    if (!grid_) {
      grid_.emplace(join, dim_);
      grid_->reserve(reps_.size());
      for (std::size_t i = 0; i < reps_.size(); ++i)
        grid_->insert(reps_[i].p, static_cast<std::uint32_t>(i));
    }
  } else {
    grid_.reset();
  }
  return kernels::with_norm(metric_.norm(), [&]<Norm N>() {
    return first_rep<N>(grid_, reps_, reps_buf_, q, join, join_key);
  });
}

void InsertionOnlyStream::rebuild_reps_buf() {
  reps_buf_.clear();
  reps_buf_.reserve(reps_.size());
  for (const auto& rep : reps_) reps_buf_.append(rep.p);
  grid_.reset();
}

void InsertionOnlyStream::absorb(const InsertionOnlyStream& other) {
  KC_EXPECTS(other.k_ == k_ && other.z_ == z_);
  KC_EXPECTS(other.eps_ == eps_ && other.dim_ == dim_);
  // max of two valid lower bounds is a valid lower bound for the union.
  r_ = std::max(r_, other.r_);
  grid_.reset();  // the join radius may have changed
  seen_ += other.seen_;
  for (const auto& rep : other.reps_) {
    // Re-cover at the merged radius; weights ride along.  Reuse the
    // insertion path minus the seen_ accounting (already added above).
    --seen_;
    insert_weighted(rep.p, rep.w);
  }
  peak_ = std::max(peak_, reps_.size());
}

}  // namespace kc::stream
