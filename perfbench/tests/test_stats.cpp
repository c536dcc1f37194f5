// Tests of the benchmark's statistics helper (src/stats.hpp).
//
// Self-contained (no test framework), so the benchmark package builds
// wherever the library does:
//
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   .bench_build/perfbench/perfbench_stats_test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "test_stats.cpp:%d: FAILED: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i + 1);
  return xs;
}

void empty_set() {
  const perfbench::Dist d = perfbench::summarize({});
  CHECK(d.count == 0);
  CHECK(near(d.median, 0.0));
  CHECK(near(d.tail_q, 0.0));
  CHECK(near(perfbench::quantile({}, 0.5), 0.0));
}

void median_odd_even_unsorted() {
  CHECK(near(perfbench::summarize({3.0, 1.0, 2.0}).median, 2.0));
  CHECK(near(perfbench::summarize({4.0, 1.0, 3.0, 2.0}).median, 2.5));
  CHECK(near(perfbench::summarize({7.0}).median, 7.0));
}

void tail_needs_ten_samples_beyond() {
  // p90 leaves n/10 samples beyond it: reportable from n = 100 on.
  CHECK(near(perfbench::highest_tail_quantile(99), 0.0));
  CHECK(near(perfbench::highest_tail_quantile(100), 0.9));
  CHECK(near(perfbench::highest_tail_quantile(999), 0.9));
  CHECK(near(perfbench::highest_tail_quantile(1000), 0.99));
  CHECK(near(perfbench::highest_tail_quantile(9999), 0.99));
  CHECK(near(perfbench::highest_tail_quantile(10000), 0.999));
  CHECK(near(perfbench::highest_tail_quantile(1000000), 0.99999));
  CHECK(!perfbench::has_tail(9999, 0.999));
  CHECK(perfbench::has_tail(10000, 0.999));
  CHECK(perfbench::has_tail(10, 0.0));
  CHECK(!perfbench::has_tail(1000000, 1.0));
}

void summary_reports_tail_and_count() {
  const std::vector<double> xs = iota(1000);
  const perfbench::Dist d = perfbench::summarize(xs);
  CHECK(d.count == 1000);
  CHECK(near(d.median, 500.5));
  CHECK(near(d.tail_q, 0.99));
  // Linear interpolation at position 0.99 · 999 = 989.01 (0-based).
  CHECK(near(d.tail, 990.01));
  CHECK(near(perfbench::quantile(xs, 0.99), d.tail));
  // Ten samples (991..1000) lie beyond the reported tail.
  int beyond = 0;
  for (const double x : xs)
    if (x > d.tail) ++beyond;
  CHECK(beyond == 10);
}

void small_set_has_no_tail() {
  const perfbench::Dist d = perfbench::summarize(iota(42));
  CHECK(d.count == 42);
  CHECK(near(d.tail_q, 0.0));
  CHECK(near(d.tail, 0.0));
  CHECK(perfbench::describe(d, "s").find("no reportable tail") !=
        std::string::npos);
}

void labels() {
  CHECK(perfbench::quantile_label(0.5) == "p50");
  CHECK(perfbench::quantile_label(0.99) == "p99");
  CHECK(perfbench::quantile_label(0.999) == "p99.9");
  const std::string line =
      perfbench::describe(perfbench::summarize(iota(10000)), "us");
  CHECK(line.find("p99.9") != std::string::npos);
  CHECK(line.find("n=10000") != std::string::npos);
}

}  // namespace

int main() {
  empty_set();
  median_odd_even_unsorted();
  tail_needs_ten_samples_beyond();
  summary_reports_tail_and_count();
  small_set_has_no_tail();
  labels();
  if (failures != 0) {
    std::fprintf(stderr, "test_stats: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("test_stats: all checks passed\n");
  return 0;
}
