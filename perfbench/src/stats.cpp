#include "stats.hpp"

#include <cmath>
#include <cstdio>

#include "kcenter.hpp"

namespace perfbench {

bool has_tail(std::size_t count, double q) {
  // Samples strictly above the q-quantile: floor(count · (1 − q)).  The
  // small epsilon keeps 1 − 0.999 from rounding one sample short.
  const double beyond =
      std::floor(static_cast<double>(count) * (1.0 - q) + 1e-9);
  return q < 1.0 && beyond >= static_cast<double>(kTailSamples);
}

double highest_tail_quantile(std::size_t count) {
  double best = 0.0;
  for (double gap = 0.1; gap > 1e-12; gap /= 10.0) {
    if (!has_tail(count, 1.0 - gap)) break;
    best = 1.0 - gap;
  }
  return best;
}

double quantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  kc::Summary s;
  for (const double x : samples) s.add(x);
  return s.percentile(q);
}

Dist summarize(const std::vector<double>& samples) {
  Dist d;
  d.count = samples.size();
  if (samples.empty()) return d;
  kc::Summary s;
  for (const double x : samples) s.add(x);
  d.median = s.median();
  d.tail_q = highest_tail_quantile(d.count);
  if (d.tail_q > 0.0) d.tail = s.percentile(d.tail_q);
  return d;
}

std::string quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.10g", q * 100.0);
  return buf;
}

std::string describe(const Dist& d, const std::string& unit) {
  char buf[160];
  if (d.tail_q > 0.0) {
    std::snprintf(buf, sizeof(buf), "median %.4g %s, %s %.4g %s, n=%zu",
                  d.median, unit.c_str(), quantile_label(d.tail_q).c_str(),
                  d.tail, unit.c_str(), d.count);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "median %.4g %s, n=%zu (no reportable tail)", d.median,
                  unit.c_str(), d.count);
  }
  return buf;
}

}  // namespace perfbench
