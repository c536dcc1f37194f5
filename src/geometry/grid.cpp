#include "geometry/grid.hpp"

#include <bit>

namespace kc {

GridPoint snap_to_grid(const Point& p, std::int64_t delta) {
  KC_EXPECTS(delta >= 2);
  GridPoint g;
  g.dim = p.dim();
  for (int i = 0; i < p.dim(); ++i)
    g.c[static_cast<std::size_t>(i)] = snap_coord(p[i], 0.0, 1.0, delta);
  return g;
}

int GridHierarchy::axis_bits(std::int64_t delta) noexcept {
  return std::bit_width(static_cast<std::uint64_t>(delta - 1));
}

bool GridHierarchy::fits(std::int64_t delta, int dim) noexcept {
  return delta >= 2 && dim >= 1 && axis_bits(delta) <= 62 / dim;
}

GridHierarchy::GridHierarchy(std::int64_t delta, int dim)
    : delta_(delta), dim_(dim) {
  KC_EXPECTS(delta >= 2);
  KC_EXPECTS(dim >= 1 && dim <= Point::kMaxDim);
  KC_EXPECTS(fits(delta, dim));
  bits_per_axis_ = axis_bits(delta);
  levels_ = bits_per_axis_ + 1;
}

std::int64_t GridHierarchy::cells_per_axis(int level) const noexcept {
  const std::int64_t side = cell_side(level);
  return (delta_ + side - 1) / side;
}

std::uint64_t GridHierarchy::universe_size(int level) const noexcept {
  std::uint64_t u = 1;
  const auto per_axis = static_cast<std::uint64_t>(cells_per_axis(level));
  for (int i = 0; i < dim_; ++i) u *= per_axis;
  return u;
}

std::uint64_t GridHierarchy::cell_id(const GridPoint& p, int level) const {
  KC_EXPECTS(level >= 0 && level < levels_);
  KC_EXPECTS(p.dim == dim_);
  const auto per_axis = static_cast<std::uint64_t>(cells_per_axis(level));
  std::uint64_t id = 0;
  for (int i = 0; i < dim_; ++i) {
    const std::int64_t ci = p.c[static_cast<std::size_t>(i)];
    KC_EXPECTS(ci >= 0 && ci < delta_);
    const auto cell = static_cast<std::uint64_t>(ci >> level);
    id = id * per_axis + cell;
  }
  return id;
}

Point GridHierarchy::cell_center(std::uint64_t id, int level) const {
  const GridPoint corner = cell_corner(id, level);
  const double half = 0.5 * static_cast<double>(cell_side(level));
  Point p(dim_);
  for (int i = 0; i < dim_; ++i)
    p[i] = static_cast<double>(corner.c[static_cast<std::size_t>(i)]) + half;
  return p;
}

GridPoint GridHierarchy::cell_corner(std::uint64_t id, int level) const {
  KC_EXPECTS(level >= 0 && level < levels_);
  const auto per_axis = static_cast<std::uint64_t>(cells_per_axis(level));
  GridPoint g;
  g.dim = dim_;
  for (int i = dim_ - 1; i >= 0; --i) {
    const std::uint64_t cell = id % per_axis;
    id /= per_axis;
    g.c[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(cell) * cell_side(level);
  }
  return g;
}

}  // namespace kc
