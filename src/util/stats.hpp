// Small summary-statistics accumulator used by the bench harnesses to
// aggregate repeated trials (min / max / percentiles).

#pragma once

#include <cstddef>
#include <vector>

namespace kc {

class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  // kc-lint-allow(exports): Summary.MeanStdDevPercentiles checks it; the
  // benches and perfbench read max, the median and percentiles only.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// q in [0,1]; linear interpolation between order statistics.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

/// Least-squares slope of log(y) against log(x); used to report empirical
/// scaling exponents ("storage grows like n^0.5") in the bench output.
[[nodiscard]] double loglog_slope(const std::vector<double>& x,
                                  const std::vector<double>& y);

}  // namespace kc
