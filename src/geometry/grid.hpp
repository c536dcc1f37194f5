// Hierarchical grids over the discrete universe [Δ]^d (paper §5).
//
// The fully dynamic streaming algorithm (Algorithm 5) imposes grids
// G_0, …, G_⌈log Δ⌉ on [Δ]^d, where cells of G_i are hypercubes of side 2^i.
// A GridHierarchy maps an integer point to its cell id at each level, maps
// cell ids back to cell centers (the "relaxed coreset" representatives), and
// reports per-level universe sizes (needed by the sketches).
//
// Cell ids pack the per-axis cell coordinates into one 64-bit word, which
// requires d·⌈log2(Δ)⌉ ≤ 62 bits (GridHierarchy::fits) — ample for the
// discrete universes the dynamic model targets (d ≤ 4, Δ ≤ 2^15 by default).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/point.hpp"

namespace kc {

/// Point with integer coordinates in [0, Δ)^d.  The paper states the
/// universe as {1..Δ}^d; we use 0-based coordinates internally.
struct GridPoint {
  std::array<std::int64_t, Point::kMaxDim> c{};
  int dim = 0;

  [[nodiscard]] Point to_point() const {
    Point p(dim);
    for (int i = 0; i < dim; ++i) p[i] = static_cast<double>(c[static_cast<std::size_t>(i)]);
    return p;
  }

  friend bool operator==(const GridPoint& a, const GridPoint& b) noexcept {
    if (a.dim != b.dim) return false;
    for (int i = 0; i < a.dim; ++i)
      if (a.c[static_cast<std::size_t>(i)] != b.c[static_cast<std::size_t>(i)]) return false;
    return true;
  }
};

/// One fully-dynamic stream element (strict turnstile: the alive multiset
/// never goes negative).
struct GridUpdate {
  GridPoint p;
  int sign = +1;  ///< +1 insert, −1 delete
};

/// Grid coordinate of the real coordinate x on a grid with origin `lo` and
/// `scale` grid units per unit: (x − lo)·scale rounded to the nearest
/// integer, clamped to [0, Δ).  Every discretization rounds through it, so
/// in-memory and out-of-core runs snap alike.
[[nodiscard]] inline std::int64_t snap_coord(double x, double lo, double scale,
                                             std::int64_t delta) noexcept {
  const auto v = static_cast<std::int64_t>(std::llround((x - lo) * scale));
  return std::clamp<std::int64_t>(v, 0, delta - 1);
}

/// Rounds a real point onto the grid (coordinates clamped to [0, Δ)).
[[nodiscard]] GridPoint snap_to_grid(const Point& p, std::int64_t delta);

class GridHierarchy {
 public:
  /// delta = universe side Δ (must be ≥ 2); dim = dimension d, with
  /// fits(delta, dim).
  GridHierarchy(std::int64_t delta, int dim);

  /// Bits of one level-0 axis coordinate: ⌈log2 Δ⌉ (Δ ≥ 2).
  [[nodiscard]] static int axis_bits(std::int64_t delta) noexcept;

  /// Whether a d-dimensional cell id over [Δ]^d packs into the 62 bits a
  /// sketch key allows: d·⌈log2 Δ⌉ ≤ 62.
  [[nodiscard]] static bool fits(std::int64_t delta, int dim) noexcept;

  [[nodiscard]] std::int64_t delta() const noexcept { return delta_; }
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// Number of levels = ⌈log2 Δ⌉ + 1 (levels 0..⌈log2 Δ⌉; level L has a
  /// single cell covering the whole universe).
  [[nodiscard]] int levels() const noexcept { return levels_; }

  /// Side length of cells at `level` (2^level).
  [[nodiscard]] std::int64_t cell_side(int level) const noexcept {
    return std::int64_t{1} << level;
  }

  /// Number of cells along one axis at `level`.
  [[nodiscard]] std::int64_t cells_per_axis(int level) const noexcept;

  /// Total number of cells at `level` (the sketch universe size U).
  [[nodiscard]] std::uint64_t universe_size(int level) const noexcept;

  /// Packs the cell containing `p` at `level` into a single id in
  /// [0, universe_size(level)).
  [[nodiscard]] std::uint64_t cell_id(const GridPoint& p, int level) const;

  /// Center of the cell with id `id` at `level`, as a real point
  /// (the representative used by the relaxed coreset).
  [[nodiscard]] Point cell_center(std::uint64_t id, int level) const;

 private:
  /// Lower corner (integer) of the cell.
  [[nodiscard]] GridPoint cell_corner(std::uint64_t id, int level) const;

  std::int64_t delta_;
  int dim_;
  int levels_;
  int bits_per_axis_;  // for packing at level 0
};

}  // namespace kc
