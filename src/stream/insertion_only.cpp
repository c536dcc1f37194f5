#include "stream/insertion_only.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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
    : k_(k),
      z_(z),
      eps_(eps),
      dim_(dim),
      metric_(metric),
      cover_(0.0, dim, metric) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  threshold_ = stream_threshold(k, z, eps, dim, policy);
  KC_EXPECTS(threshold_ >=
             static_cast<std::size_t>(k) + static_cast<std::size_t>(z) + 1);
}

void InsertionOnlyStream::insert_weighted(const Point& p, std::int64_t w) {
  // Join a representative within (ε/2)·r, or become one.  While r == 0
  // this absorbs exact duplicates only.
  cover_.add(p, w);
  const WeightedSet& reps = cover_.reps();
  peak_ = std::max(peak_, reps.size());

  // Bootstrap: first sensible lower bound once k+z+1 distinct points exist.
  // kc-lint-allow(numerics): r_ == 0.0 is the exact not-yet-bootstrapped
  // sentinel (set only by initialization, never by arithmetic).
  if (r_ == 0.0 &&
      reps.size() >= static_cast<std::size_t>(k_) +
                         static_cast<std::size_t>(z_) + 1) {
    double min_key = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < reps.size(); ++i)
      for (std::size_t j = i + 1; j < reps.size(); ++j)
        min_key = std::min(min_key, metric_.dist_key(reps[i].p, reps[j].p));
    const double delta = metric_.key_to_dist(min_key);
    KC_ENSURES(delta > 0.0);  // P* never stores coinciding points
    r_ = delta / 2.0;
    cover_.set_radius((eps_ / 2.0) * r_);
  }

  // Recompression loop (UpdateCoreset): double r and re-cover P* at the new
  // join radius until the size drops below the threshold.
  while (cover_.reps().size() >= threshold_) {
    KC_EXPECTS(r_ > 0.0);
    r_ *= 2.0;
    ++doublings_;
    GreedyCover next((eps_ / 2.0) * r_, dim_, metric_);
    for (const auto& rep : cover_.reps()) next.add(rep.p, rep.w);
    cover_ = std::move(next);
  }
}

}  // namespace kc::stream
