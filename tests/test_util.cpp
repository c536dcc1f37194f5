#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace kc {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::array<int, 8> counts{};
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform(8)];
  for (int c : counts) {
    EXPECT_GT(c, trials / 8 - 600);
    EXPECT_LT(c, trials / 8 + 600);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real(0.0, 1.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Splitmix, KnownFixedPointFree) {
  // splitmix64 must not be the identity on small values.
  for (std::uint64_t v = 0; v < 64; ++v) EXPECT_NE(splitmix64(v), v);
}

TEST(Summary, MeanStdDevPercentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.9), 90.1, 0.5);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.median(), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 3.5);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 1.5));
  }
  EXPECT_NEAR(loglog_slope(x, y), 1.5, 1e-9);
}

TEST(Table, AlignsAndCounts) {
  Table t({"alg", "n", "storage"});
  t.add_row({"ours", "1024", "33"});
  t.add_row({"baseline", "1024", "71"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("baseline"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Fmt, TrimsZeros) {
  EXPECT_EQ(fmt(1.5, 3), "1.5");
  EXPECT_EQ(fmt(2.0, 3), "2");
  EXPECT_EQ(fmt(0.125, 3), "0.125");
}

TEST(Fmt, CountSeparators) {
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(12), "12");
  EXPECT_EQ(fmt_count(-1000), "-1,000");
}

TEST(Csv, WritesQuotedCells) {
  const std::string path = ::testing::TempDir() + "/kc_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.write_row({"x,y", "plain"});
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\n\"x,y\",plain\n");
}

TEST(Flags, ParsesAllSyntaxes) {
  // Note: a bare boolean flag must come last or be followed by another
  // --flag, otherwise the next token is consumed as its value.
  const char* argv[] = {"prog", "pos", "--n=100", "--eps", "0.5", "--quick"};
  Flags f(6, const_cast<char**>(argv));
  EXPECT_EQ(f.get<int>("n", 0), 100);
  EXPECT_DOUBLE_EQ(f.get<double>("eps", 0.0), 0.5);
  EXPECT_TRUE(f.has("quick"));
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.get<int>("missing", 42), 42);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
}

// Flags over `args`, with a program name in front.
Flags flags_of(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, NumbersParseWholeIntoTheirType) {
  const Flags f = flags_of({"--n", "300", "--k=-7", "--eps", "1e-3", "--seed",
                            "18446744073709551615"});
  EXPECT_EQ(f.get<std::size_t>("n", 0), 300u);
  EXPECT_EQ(f.get<int>("k", 0), -7);
  EXPECT_DOUBLE_EQ(f.get<double>("eps", 0.0), 1e-3);
  EXPECT_EQ(f.get<std::uint64_t>("seed", 0), UINT64_MAX);
  // An absent flag keeps its default, whatever the type.
  EXPECT_EQ(f.get<std::int64_t>("absent", -3), -3);
  EXPECT_DOUBLE_EQ(f.get<double>("absent", 0.25), 0.25);
}

// A value that does not parse whole into its type is an error, exit 2: a
// trailing suffix, a value past the type's range, a negative value for an
// unsigned type and an empty value.
TEST(FlagsDeathTest, MalformedNumbersExitTwo) {
  const auto exits = ::testing::ExitedWithCode(2);
  EXPECT_EXIT((void)flags_of({"--n", "300x"}).get<std::size_t>("n", 0), exits,
              "error: --n expects an integer");
  EXPECT_EXIT((void)flags_of({"--eps", "0.5x"}).get<double>("eps", 0.0), exits,
              "error: --eps expects a number");
  EXPECT_EXIT((void)flags_of({"--k", "4294967297"}).get<int>("k", 0), exits,
              "error: --k expects an integer in \\[-2147483648, 2147483647\\]");
  EXPECT_EXIT((void)flags_of({"--eps", "1e400"}).get<double>("eps", 0.0),
              exits, "error: --eps expects a number");
  EXPECT_EXIT((void)flags_of({"--n", "-5"}).get<std::size_t>("n", 0), exits,
              "error: --n expects an integer in \\[0, ");
  EXPECT_EXIT((void)flags_of({"--x="}).get<int>("x", 0), exits,
              "error: --x expects an integer");
}

TEST(MemoryBudget, IsPositive) { EXPECT_GT(memory_budget_bytes(), 0u); }

}  // namespace
}  // namespace kc
