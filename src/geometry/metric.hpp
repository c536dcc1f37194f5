// Metric abstraction for R^d under the L2, L∞, and L1 norms.
//
// All algorithms in the library are written against this class rather than
// against a hard-coded norm: the paper's results hold in any metric space of
// constant doubling dimension, and its sliding-window lower bound (§6) is
// stated under L∞, so every built-in norm is first-class.  A `Metric` is a
// trivially copyable wrapper around a `Norm`; its distance calls are the
// inline kernels of geometry/kernels.hpp, so a per-item call pays no
// out-of-line call and no branch beyond the norm dispatch.  The doubling
// dimension of R^d is Θ(d) under each norm.

#pragma once

#include <string>
#include <type_traits>

#include "geometry/kernels.hpp"  // defines Norm + the inline kernels
#include "geometry/point.hpp"

namespace kc {

class Metric {
 public:
  explicit Metric(Norm norm = Norm::L2) noexcept : norm_(norm) {}

  [[nodiscard]] Norm norm() const noexcept { return norm_; }

  [[nodiscard]] double dist(const Point& a, const Point& b) const noexcept {
    KC_DCHECK(a.dim() == b.dim());
    return kernels::dist(norm_, a.coords().data(), b.coords().data(), a.dim());
  }

  /// Monotone "fast key" — squared distance under L2 (avoids the sqrt in
  /// inner loops); equals dist under L∞ and L1.
  [[nodiscard]] double dist_key(const Point& a,
                                const Point& b) const noexcept {
    KC_DCHECK(a.dim() == b.dim());
    return kernels::dist_key(norm_, a.coords().data(), b.coords().data(),
                             a.dim());
  }

  /// Converts a key produced by dist_key back to a distance.
  [[nodiscard]] double key_to_dist(double key) const noexcept {
    return kernels::key_to_dist(norm_, key);
  }

  /// Converts a distance threshold to a key threshold: `dist(a,b) <= r` iff
  /// `dist_key(a,b) <= dist_to_key(r)` for r >= 0.
  [[nodiscard]] double dist_to_key(double r) const noexcept {
    return kernels::dist_to_key(norm_, r);
  }

  [[nodiscard]] const char* name() const noexcept;

 private:
  Norm norm_;
};

static_assert(std::is_trivially_copyable_v<Metric>);

/// Parses "l2" / "l1" / "linf"; returns false (out untouched) otherwise.
[[nodiscard]] bool parse_norm(const std::string& name, Norm* out) noexcept;

}  // namespace kc
