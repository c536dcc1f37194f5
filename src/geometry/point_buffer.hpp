// Flat structure-of-arrays point storage — the canonical in-memory layout.
//
// Every hot loop in the library streams through coordinates column-wise
// (one contiguous float64 array per dimension), so points live in a
// `PointBuffer`: column j holds coordinate j of every point.  The AoS
// `Point` (geometry/point.hpp) remains the *boundary* representation —
// convenient for construction, tests, and per-item APIs — and `point(i)`
// unpacks one row on demand.  Workload generators emit a buffer alongside
// the AoS set, pipelines pass it down, and the kernels in
// geometry/kernels.hpp consume it (or any slice of it) directly, so no
// layer re-packs coordinates at a kernel boundary.  Kernel results over a
// buffer are bit-identical to the historical AoS scalar loops
// (dimension-ascending accumulation per point, pinned by
// tests/test_simd.cpp).
//
// `BufferView` is a non-owning slice (offset + count) of a buffer: the
// columns keep the parent's stride, so taking a view copies nothing and
// kernels run on arbitrary sub-ranges (MPC machine blocks, stream windows,
// chunk-parallel splits) with no re-pack.
//
// Unlike `Point` (capped at kMaxDim), a buffer supports any dim ≥ 1 when
// filled through `append(const double*)`; only the `Point`-boundary
// conveniences require dim ≤ Point::kMaxDim.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.hpp"
#include "util/check.hpp"

namespace kc {

enum class Norm : std::uint8_t { L2, Linf, L1 };

namespace kernels {

/// Distance key under norm N between a point whose coordinate j is x(j)
/// and the query q: the squared distance under L2 (no sqrt), the distance
/// itself under L∞ and L1.  D > 0 unrolls a D-dimensional loop; D = 0
/// reads the dimension `d` at run time.  Accumulation is
/// dimension-ascending, so every caller of this one formula gets the same
/// bits for the same point and query.
template <Norm N, int D = 0, typename X>
[[nodiscard]] inline double key_of(X&& x, const double* q, int d) noexcept {
  const int dim = D > 0 ? D : d;
  double s = 0.0;
  for (int j = 0; j < dim; ++j) {
    const double diff = x(j) - q[j];
    if constexpr (N == Norm::L2) {
      s += diff * diff;
    } else if constexpr (N == Norm::Linf) {
      const double a = std::fabs(diff);
      if (a > s) s = a;
    } else {
      s += std::fabs(diff);
    }
  }
  return s;
}

/// Non-owning slice of a `PointBuffer`: rows [0, size()) map to rows
/// [offset, offset+count) of the parent, columns keep the parent's stride.
class BufferView {
 public:
  BufferView() = default;
  BufferView(const double* base, std::size_t stride, std::size_t count,
             int dim) noexcept
      : base_(base), stride_(stride), n_(count), dim_(dim) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// Column j (coordinate j of every row in the slice), length size().
  [[nodiscard]] const double* col(int j) const noexcept {
    KC_DCHECK(j >= 0 && j < dim_);
    return base_ + static_cast<std::size_t>(j) * stride_;
  }

  /// Sub-slice [offset, offset+count) of this view.
  [[nodiscard]] BufferView subview(std::size_t offset,
                                   std::size_t count) const noexcept {
    KC_DCHECK(offset + count <= n_);
    return BufferView(base_ + offset, stride_, count, dim_);
  }

  /// Alias for `subview` matching `PointBuffer::view(offset, count)`,
  /// so generic kernels (e.g. the blocked `first_within`) accept owning
  /// buffers and slices interchangeably.
  [[nodiscard]] BufferView view(std::size_t offset,
                                std::size_t count) const noexcept {
    return subview(offset, count);
  }

  /// Distance key of row i to query coordinates q (see `key_of`).
  template <Norm N>
  [[nodiscard]] double key_to(std::size_t i, const double* q) const noexcept {
    KC_DCHECK(i < n_);
    return key_of<N>([&](int j) { return col(j)[i]; }, q, dim_);
  }

 private:
  const double* base_ = nullptr;
  std::size_t stride_ = 0;
  std::size_t n_ = 0;
  int dim_ = 0;
};

/// Owning SoA coordinate store with incremental append.  Columns share one
/// allocation with stride = capacity; growing re-packs (amortized, like
/// std::vector).  Append-only: rows are never mutated in place, matching
/// the read-only contract the kernels assume.
class PointBuffer {
 public:
  PointBuffer() = default;

  /// Empty appendable buffer of the given dimension (any dim ≥ 1; `Point`
  /// conveniences additionally require dim ≤ Point::kMaxDim).
  explicit PointBuffer(int dim) : dim_(dim) { KC_EXPECTS(dim >= 1); }

  explicit PointBuffer(const WeightedSet& pts) {
    if (pts.empty()) return;
    dim_ = pts.front().p.dim();
    reserve(pts.size());
    for (const auto& wp : pts) append(wp.p);
  }

  explicit PointBuffer(const PointSet& pts) {
    if (pts.empty()) return;
    dim_ = pts.front().dim();
    reserve(pts.size());
    for (const auto& p : pts) append(p);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Column j (coordinate j of every point), length size().
  [[nodiscard]] const double* col(int j) const noexcept {
    KC_DCHECK(j >= 0 && j < dim_);
    return data_.data() + static_cast<std::size_t>(j) * cap_;
  }

  void reserve(std::size_t n) {
    if (n > cap_) relayout(n);
  }

  /// Appends one row from raw coordinates (length dim()).  NaN/Inf
  /// coordinates are rejected here, at the
  /// single SoA ingest point, so no non-finite value ever reaches the
  /// distance kernels (whose comparisons silently misbehave under NaN).
  void append(const double* coords) {
    KC_DCHECK(dim_ >= 1);
    if (n_ == cap_) relayout(cap_ < 8 ? 8 : cap_ * 2);
    for (int j = 0; j < dim_; ++j) {
      KC_EXPECTS(std::isfinite(coords[j]) && "non-finite coordinate");
      data_[static_cast<std::size_t>(j) * cap_ + n_] = coords[j];
    }
    ++n_;
  }

  void append(const Point& p) {
    KC_DCHECK(p.dim() == dim_);
    append(p.coords().data());
  }

  /// Drops all rows, keeping dim and capacity (for rebuild-in-place
  /// consumers like the dataset chunk readers).
  void clear() noexcept { n_ = 0; }

  /// Row i unpacked to the AoS boundary type (requires dim ≤ kMaxDim).
  [[nodiscard]] Point point(std::size_t i) const {
    KC_DCHECK(i < n_);
    KC_EXPECTS(dim_ >= 1 && dim_ <= Point::kMaxDim);
    Point p(dim_);
    for (int j = 0; j < dim_; ++j) p[j] = col(j)[i];
    return p;
  }

  /// Whole-buffer view, and the [offset, offset+count) slice.
  [[nodiscard]] BufferView view() const noexcept {
    return BufferView(data_.data(), cap_, n_, dim_);
  }
  [[nodiscard]] BufferView view(std::size_t offset,
                                std::size_t count) const noexcept {
    KC_DCHECK(offset + count <= n_);
    return BufferView(data_.data() + offset, cap_, count, dim_);
  }

  /// Distance key of point i to query coordinates q (see BufferView).
  template <Norm N>
  [[nodiscard]] double key_to(std::size_t i, const double* q) const noexcept {
    return view().key_to<N>(i, q);
  }

 private:
  void relayout(std::size_t new_cap) {
    std::vector<double> next(new_cap * static_cast<std::size_t>(dim_));
    for (int j = 0; j < dim_; ++j) {
      const double* src = data_.data() + static_cast<std::size_t>(j) * cap_;
      double* dst = next.data() + static_cast<std::size_t>(j) * new_cap;
      for (std::size_t i = 0; i < n_; ++i) dst[i] = src[i];
    }
    data_ = std::move(next);
    cap_ = new_cap;
  }

  std::vector<double> data_;
  std::size_t n_ = 0;
  std::size_t cap_ = 0;
  int dim_ = 0;
};

/// `*buf` when it mirrors `pts` (same size: callers pass a buffer packed
/// from that set), else `local` packed from `pts` — one pack per caller.
[[nodiscard]] inline const PointBuffer& mirror_or_pack(
    const WeightedSet& pts, const PointBuffer* buf, PointBuffer& local) {
  if (buf != nullptr && buf->size() == pts.size()) return *buf;
  local = PointBuffer(pts);
  return local;
}

}  // namespace kernels
}  // namespace kc
