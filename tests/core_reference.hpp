// Reference copy of the greedy mini-ball covering pass, kept as the
// differential oracle for `mbc_with_radius` (core/mbc.cpp): the plain
// O(n·|reps|) scan that assigns each point to the first representative
// within the radius, in rep order, through `Metric::dist_key` (no kernels,
// no grid).  The library's adaptive scan-then-grid pass must match it
// output for output (tests/test_kernels.cpp).

#pragma once

#include <cstdint>

#include "core/mbc.hpp"
#include "core/types.hpp"
#include "util/check.hpp"

namespace kc::reference {

inline MiniBallCovering mbc_with_radius_scalar(const WeightedSet& pts,
                                               double radius,
                                               const Metric& metric) {
  KC_EXPECTS(radius >= 0.0);
  MiniBallCovering out;
  out.cover_radius = radius;
  out.assignment.reserve(pts.size());
  const double key = metric.dist_to_key(radius);

  for (const auto& wp : pts) {
    KC_EXPECTS(wp.w > 0);
    bool placed = false;
    for (std::size_t r = 0; r < out.reps.size(); ++r) {
      if (metric.dist_key(wp.p, out.reps[r].p) <= key) {
        out.reps[r].w += wp.w;
        out.assignment.push_back(static_cast<std::uint32_t>(r));
        placed = true;
        break;
      }
    }
    if (!placed) {
      out.assignment.push_back(static_cast<std::uint32_t>(out.reps.size()));
      out.reps.push_back(wp);
    }
  }
  return out;
}

}  // namespace kc::reference
