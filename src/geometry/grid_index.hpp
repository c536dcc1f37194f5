// Hash-grid over points in R^d with cell width tied to a query radius.
//
// Not to be confused with geometry/grid.hpp (the paper's hierarchical grids
// over the *discrete* universe [Δ]^d used by the dynamic sketches): this is
// the performance layer's spatial index over arbitrary real coordinates.
// Cells are axis-aligned hypercubes of side `cell_width`; a point lands in
// the cell given by floor(coord / cell_width) per axis.  Because each
// built-in norm dominates the per-coordinate difference (|a−b|_∞ ≤ ‖a−b‖
// for L1, L2, and L∞), any point within norm-distance r of a query lies in
// a cell whose per-axis index differs by at most ⌈r / cell_width⌉ from the
// query's cell — so `for_each_candidate` enumerates the (2·reach+1)^d
// neighboring cells and is guaranteed to yield a *superset* of the true
// r-ball.  Callers always filter with an exact distance check, so the index
// only prunes, never decides.
//
// Cells are keyed by their exact integer coordinates (no lossy packing):
// each cell stores its dim int64 key words, a flat open-addressing table of
// cell ids (linear probing, load ≤ 1/2, doubled on growth) resolves hash
// collisions by probing on, and a lookup matches only a slot whose dim key
// words are all equal.  So distinct cells are never merged and a neighbor
// enumeration visits each cell exactly once — the incremental-weight
// bookkeeping in core/charikar.cpp relies on that.  A cell lists its points
// in insertion order.  Extreme coordinate/width ratios are clamped to
// ±2^61 before the cast; clamping is monotone and contracts index
// differences, so the superset guarantee survives even degenerate inputs.
// The width must be positive: a zero radius (exact duplicates only) takes
// any positive width, since duplicates share a cell.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.hpp"

namespace kc {

class GridIndex {
 public:
  /// cell_width must be > 0; dim in [1, Point::kMaxDim].
  GridIndex(double cell_width, int dim);

  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Sizes the table for n cells without further growth.
  void reserve(std::size_t n);

  /// Registers point `idx` at the given coordinates (length dim()).
  void insert(const double* coords, std::uint32_t idx);
  void insert(const Point& p, std::uint32_t idx) {
    KC_DCHECK(p.dim() == dim_);
    insert(p.coords().data(), idx);
  }

  /// Smallest cell reach whose neighborhood certainly contains every point
  /// within norm-distance `radius` of a query: ⌈radius / cell_width⌉.
  [[nodiscard]] int reach_for(double radius) const noexcept {
    return static_cast<int>(std::ceil(radius / width_));
  }

  /// Invokes f(span<const uint32_t>) once per non-empty cell within
  /// `reach` cells of q's cell along every axis.  The union of the spans is
  /// a superset of every indexed point within cell_width·reach of q (under
  /// L1, L2, and L∞), with no index repeated.
  template <typename F>
  void for_each_candidate(const double* q, int reach, F&& f) const {
    Key key = key_for(q);
    const Key base = key;
    // Odometer over the (2·reach+1)^dim offset box.
    std::array<int, Point::kMaxDim> off{};
    for (int j = 0; j < dim_; ++j) {
      off[static_cast<std::size_t>(j)] = -reach;
      key[static_cast<std::size_t>(j)] =
          base[static_cast<std::size_t>(j)] - reach;
    }
    for (;;) {
      const std::uint32_t cell = find(key.data());
      if (cell != kNone)
        f(std::span<const std::uint32_t>(members_[cell]));
      int j = 0;
      for (; j < dim_; ++j) {
        const auto sj = static_cast<std::size_t>(j);
        if (off[sj] < reach) {
          ++off[sj];
          key[sj] = base[sj] + off[sj];
          break;
        }
        off[sj] = -reach;
        key[sj] = base[sj] - reach;
      }
      if (j == dim_) break;
    }
  }

 private:
  using Key = std::array<std::int64_t, Point::kMaxDim>;
  static constexpr std::uint32_t kNone = UINT32_MAX;  ///< an empty slot

  // Only the first dim_ words carry information, so mixing just those
  // keeps the per-lookup cost proportional to the actual dimension.
  [[nodiscard]] std::uint64_t hash(const std::int64_t* k) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int j = 0; j < dim_; ++j) {
      std::uint64_t x = static_cast<std::uint64_t>(k[j]) + h;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      h = x;
    }
    return h;
  }

  /// The slot holding the cell keyed by k (dim_ words), or the empty slot
  /// where that cell would go.  The table is never full, so the probe ends.
  [[nodiscard]] std::size_t slot_for(const std::int64_t* k) const noexcept {
    const auto d = static_cast<std::size_t>(dim_);
    for (std::size_t s = hash(k) & mask_;; s = (s + 1) & mask_) {
      const std::uint32_t cell = slots_[s];
      if (cell == kNone) return s;
      const std::int64_t* ck = &keys_[cell * d];
      std::size_t j = 0;
      while (j < d && ck[j] == k[j]) ++j;
      if (j == d) return s;
    }
  }
  /// The cell id keyed by k, or kNone.
  [[nodiscard]] std::uint32_t find(const std::int64_t* k) const noexcept {
    return slots_[slot_for(k)];
  }

  [[nodiscard]] Key key_for(const double* coords) const noexcept;
  /// Rebuilds the slot array with `slots` (a power of two) slots.
  void rehash(std::size_t slots);

  double width_;
  int dim_;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;              ///< slots_.size() − 1
  std::vector<std::uint32_t> slots_;  ///< cell id per slot, or kNone
  std::vector<std::int64_t> keys_;    ///< dim_ key words per cell id
  std::vector<std::vector<std::uint32_t>> members_;  ///< points per cell id
};

}  // namespace kc
