// Baseline for the fully dynamic model: an exact multiset point store.
//
// This is what the Ω(n)-space dynamic algorithms the paper compares against
// ([28], [6]) fundamentally keep: every live point.  The store holds the
// exact live multiset, updates are O(log n), but storage grows
// linearly with the live-set size — the row against which Algorithm 5's
// polylog(Δ) sketch words are compared in the T1-DYN bench.

#pragma once

#include <cstdint>
#include <map>

#include "geometry/grid.hpp"
#include "geometry/point.hpp"
#include "util/check.hpp"

namespace kc::dynamic {

class NaivePointStore {
 public:
  explicit NaivePointStore(int dim) : dim_(dim) {}

  void update(const GridPoint& p, int sign) {
    KC_EXPECTS(p.dim == dim_);
    std::array<std::int64_t, Point::kMaxDim> key = p.c;
    auto& cnt = counts_[key];
    cnt += sign;
    KC_EXPECTS(cnt >= 0);
    if (cnt == 0) counts_.erase(key);
    live_ += sign;
    peak_entries_ = std::max(peak_entries_, counts_.size());
  }

  [[nodiscard]] std::int64_t live_points() const noexcept { return live_; }

  /// Storage in words: one point (d words) + one count per distinct
  /// location — grows with the data, unlike the sketches.
  [[nodiscard]] std::size_t words() const noexcept {
    return counts_.size() * static_cast<std::size_t>(dim_ + 1);
  }
  [[nodiscard]] std::size_t peak_words() const noexcept {
    return peak_entries_ * static_cast<std::size_t>(dim_ + 1);
  }

 private:
  int dim_;
  std::map<std::array<std::int64_t, Point::kMaxDim>, std::int64_t> counts_;
  std::int64_t live_ = 0;
  std::size_t peak_entries_ = 0;
};

}  // namespace kc::dynamic
