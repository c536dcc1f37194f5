#include "geometry/point.hpp"

#include <sstream>

namespace kc {

Point Point::operator+(const Point& o) const {
  KC_EXPECTS(dim_ == o.dim_);
  Point r(dim_);
  for (int i = 0; i < dim_; ++i) r[i] = (*this)[i] + o[i];
  return r;
}

Point Point::operator-(const Point& o) const {
  KC_EXPECTS(dim_ == o.dim_);
  Point r(dim_);
  for (int i = 0; i < dim_; ++i) r[i] = (*this)[i] - o[i];
  return r;
}

Point Point::operator*(double s) const {
  Point r(dim_);
  for (int i = 0; i < dim_; ++i) r[i] = (*this)[i] * s;
  return r;
}

std::string Point::to_string() const {
  std::ostringstream out;
  out << '(';
  for (int i = 0; i < dim_; ++i) {
    if (i) out << ", ";
    out << (*this)[i];
  }
  out << ')';
  return out.str();
}

std::int64_t total_weight(const WeightedSet& s) noexcept {
  std::int64_t w = 0;
  for (const auto& wp : s) w += wp.w;
  return w;
}

WeightedSet with_unit_weights(const PointSet& s) {
  WeightedSet out;
  out.reserve(s.size());
  for (const auto& p : s) out.push_back({p, 1});
  return out;
}

}  // namespace kc
