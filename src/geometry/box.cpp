#include "geometry/box.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kc {

Box::Box(Point lo, Point hi) : lo_(std::move(lo)), hi_(std::move(hi)), empty_(false) {
  KC_EXPECTS(lo_.dim() == hi_.dim());
  for (int i = 0; i < lo_.dim(); ++i) KC_EXPECTS(lo_[i] <= hi_[i]);
}

Box Box::empty(int dim) {
  Box b;
  b.lo_ = Point(dim, std::numeric_limits<double>::infinity());
  b.hi_ = Point(dim, -std::numeric_limits<double>::infinity());
  b.empty_ = true;
  return b;
}

void Box::extend(const Point& p) {
  if (lo_.dim() == 0) {
    lo_ = p;
    hi_ = p;
    empty_ = false;
    return;
  }
  KC_EXPECTS(p.dim() == lo_.dim());
  for (int i = 0; i < p.dim(); ++i) {
    lo_[i] = std::min(lo_[i], p[i]);
    hi_[i] = std::max(hi_[i], p[i]);
  }
  empty_ = false;
}

bool Box::contains(const Point& p) const {
  KC_EXPECTS(!empty_ && p.dim() == lo_.dim());
  for (int i = 0; i < p.dim(); ++i)
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  return true;
}

double Box::max_side() const {
  KC_EXPECTS(!empty_);
  double m = 0.0;
  for (int i = 0; i < lo_.dim(); ++i) m = std::max(m, hi_[i] - lo_[i]);
  return m;
}

double Box::diameter(const Metric& metric) const {
  KC_EXPECTS(!empty_);
  return metric.dist(lo_, hi_);
}

Spread compute_spread(const PointSet& pts, const Metric& metric) {
  Spread s;
  s.d_min = std::numeric_limits<double>::infinity();
  s.d_max = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const double d = metric.dist(pts[i], pts[j]);
      if (d > 0.0) s.d_min = std::min(s.d_min, d);
      s.d_max = std::max(s.d_max, d);
    }
  }
  if (!std::isfinite(s.d_min)) s.d_min = 0.0;
  return s;
}

}  // namespace kc
