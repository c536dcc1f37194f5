// Order statistics for the benchmark's timings.
//
// Every timing the benchmark reports is a median plus the highest tail
// percentile that still has at least ten samples beyond it, always with
// the sample count: with n samples, p90 needs n >= 100, p99 needs
// n >= 1000, p99.9 needs n >= 10000, and so on.  A percentile with fewer
// than ten samples beyond it is one or two outliers, not a tail.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples beyond a tail percentile that make it reportable.
inline constexpr std::size_t kTailSamples = 10;

/// Summary of one sample set.
struct Dist {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest quantile of the form 1 − 10^−m (0.9, 0.99, …) with at least
  /// kTailSamples samples beyond it; 0 when there is none (count < 100).
  double tail_q = 0.0;
  double tail = 0.0;  ///< value at tail_q (0 when tail_q is 0)
};

/// Whether quantile q has at least kTailSamples samples beyond it.
[[nodiscard]] bool has_tail(std::size_t count, double q);

/// The highest reportable tail quantile for `count` samples, or 0.
[[nodiscard]] double highest_tail_quantile(std::size_t count);

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the convention of util/stats.hpp).  0 on an empty set.
[[nodiscard]] double quantile(const std::vector<double>& samples, double q);

/// Median and highest reportable tail of `samples`.
[[nodiscard]] Dist summarize(const std::vector<double>& samples);

/// "p50", "p99.9", … for a quantile.
[[nodiscard]] std::string quantile_label(double q);

/// One line: "median 1.23 <unit>, p99.9 4.56 <unit>, n=12345" (or "no
/// reportable tail" when the set is too small for one).
[[nodiscard]] std::string describe(const Dist& d, const std::string& unit);

}  // namespace perfbench
