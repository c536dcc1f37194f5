#include "dataset/text_import.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dataset/kcb.hpp"
#include "geometry/point.hpp"
#include "util/check.hpp"

namespace kc::dataset {

namespace {

[[noreturn]] void fail(const std::string& path, std::size_t lineno,
                       const std::string& what) {
  std::ostringstream os;
  os << path;
  if (lineno != 0) os << ":" << lineno;
  os << ": " << what;
  throw std::runtime_error(os.str());
}

std::string out_of_bound() {
  std::ostringstream os;
  os << "|value| exceeds the coordinate bound " << Point::kMaxAbsCoordinate;
  return os.str();
}

bool is_blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

/// Full-cell numeric parse: the entire (trimmed) cell must be consumed, so
/// "1.5abc" is rejected instead of silently reading 1.5.
bool parse_cell(const std::string& cell, double& out) {
  std::size_t b = 0, e = cell.size();
  while (b < e && std::isspace(static_cast<unsigned char>(cell[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(cell[e - 1])) != 0)
    --e;
  if (b == e) return false;
  const std::string t = cell.substr(b, e - b);
  char* end = nullptr;
  out = std::strtod(t.c_str(), &end);
  return end == t.c_str() + t.size();
}

/// Strict CSV walk: calls `row(lineno, cols)` for every data line.  Skips
/// blanks, `#` comments, and at most one leading header line (a first data
/// line in which *no* cell parses as a number).  Everything else malformed
/// throws with line (and column) position.
void walk_csv(const std::string& path,
              const std::function<void(std::size_t,
                                       const std::vector<double>&)>& row) {
  std::ifstream in(path);
  if (!in) fail(path, 0, "cannot open");
  std::string line;
  std::size_t lineno = 0;
  bool seen_data = false;
  int dim = -1;
  std::vector<double> cols;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (is_blank(line)) continue;
    const std::size_t first =
        line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;

    cols.clear();
    std::stringstream ss(line);
    std::string cell;
    std::size_t col = 0;
    std::size_t bad_col = 0;   // first unparseable column (1-based), 0 = none
    std::size_t parsed = 0;
    while (std::getline(ss, cell, ',')) {
      ++col;
      double v = 0.0;
      if (!parse_cell(cell, v)) {
        if (bad_col == 0) bad_col = col;
        continue;
      }
      ++parsed;
      if (bad_col == 0) cols.push_back(v);
    }
    if (bad_col != 0) {
      // A first line of pure non-numbers is a header; anything else is an
      // error at the offending cell.
      if (!seen_data && parsed == 0) continue;
      std::ostringstream os;
      os << "column " << bad_col << ": not a number";
      fail(path, lineno, os.str());
    }
    if (cols.empty()) fail(path, lineno, "no columns");
    for (std::size_t c = 0; c < cols.size(); ++c) {
      if (!std::isfinite(cols[c])) {
        std::ostringstream os;
        os << "column " << (c + 1) << ": non-finite value";
        fail(path, lineno, os.str());
      }
      if (std::fabs(cols[c]) > Point::kMaxAbsCoordinate) {
        std::ostringstream os;
        os << "column " << (c + 1) << ": " << out_of_bound();
        fail(path, lineno, os.str());
      }
    }
    if (dim < 0) dim = static_cast<int>(cols.size());
    if (static_cast<int>(cols.size()) != dim) {
      std::ostringstream os;
      os << "has " << cols.size() << " columns, expected " << dim;
      fail(path, lineno, os.str());
    }
    seen_data = true;
    row(lineno, cols);
  }
}

}  // namespace

WeightedSet read_csv_points(const std::string& path, bool weighted) {
  WeightedSet pts;
  // Every consumer sums weights in int64, so the total must fit there.
  std::int64_t total = 0;
  walk_csv(path, [&](std::size_t lineno, const std::vector<double>& cols) {
    std::int64_t w = 1;
    std::size_t dim = cols.size();
    if (weighted) {
      if (cols.size() < 2)
        fail(path, lineno, "--weighted needs >= 2 columns");
      const double wv = cols.back();
      if (!(wv >= 1.0) || wv != std::floor(wv) ||
          wv > 9.0e18)
        fail(path, lineno, "weight must be a positive integer");
      w = static_cast<std::int64_t>(wv);
      dim = cols.size() - 1;
    }
    if (w > std::numeric_limits<std::int64_t>::max() - total)
      fail(path, lineno, "total weight exceeds the int64 range");
    total += w;
    if (dim > static_cast<std::size_t>(Point::kMaxDim)) {
      std::ostringstream os;
      os << "dim " << dim << " exceeds the Point limit of " << Point::kMaxDim
         << " (convert to .kcb for wide data)";
      fail(path, lineno, os.str());
    }
    pts.push_back(
        {Point(std::span<const double>(cols.data(), dim)), w});
  });
  if (pts.empty()) fail(path, 0, "no points parsed");
  return pts;
}

std::uint64_t csv_to_kcb(const std::string& csv_path,
                         const std::string& kcb_path) {
  // Pass 1: count rows (and fix dim) under the same strict validation the
  // writing pass uses, so the writer can lay out columns up front.
  std::uint64_t n = 0;
  int dim = -1;
  walk_csv(csv_path, [&](std::size_t, const std::vector<double>& cols) {
    ++n;
    dim = static_cast<int>(cols.size());
  });
  if (n == 0) fail(csv_path, 0, "no points parsed");

  KcbWriter writer(kcb_path, dim, n);
  walk_csv(csv_path, [&](std::size_t, const std::vector<double>& cols) {
    writer.append(cols.data());
  });
  writer.finish();
  return n;
}

std::uint64_t mtx_to_kcb(const std::string& mtx_path,
                         const std::string& kcb_path) {
  std::ifstream in(mtx_path);
  if (!in) fail(mtx_path, 0, "cannot open");
  std::string line;
  std::size_t lineno = 0;

  // Banner: "%%MatrixMarket matrix array real general" (case-insensitive).
  if (!std::getline(in, line)) fail(mtx_path, 1, "empty file");
  ++lineno;
  std::string lower = line;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower.rfind("%%matrixmarket", 0) != 0)
    fail(mtx_path, 1, "not a MatrixMarket file (missing %%MatrixMarket banner)");
  const auto has = [&lower](const char* tok) {
    return lower.find(tok) != std::string::npos;
  };
  if (!has(" matrix ") && lower.find(" matrix") == std::string::npos)
    fail(mtx_path, 1, "banner: expected object 'matrix'");
  if (!has("array"))
    fail(mtx_path, 1,
         "banner: only the dense 'array' format is supported (got sparse "
         "'coordinate'?)");
  if (!has("real"))
    fail(mtx_path, 1, "banner: only 'real' values are supported");
  if (!has("general"))
    fail(mtx_path, 1, "banner: only 'general' symmetry is supported");

  // Comments, then the size line: "<n> <dim>".
  std::uint64_t n = 0;
  int dim = 0;
  for (;;) {
    if (!std::getline(in, line)) fail(mtx_path, lineno, "missing size line");
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (is_blank(line) || line[0] == '%') continue;
    std::istringstream ss(line);
    long long rows = 0, cols = 0;
    std::string extra;
    if (!(ss >> rows >> cols) || (ss >> extra) || rows < 1 || cols < 1)
      fail(mtx_path, lineno, "malformed size line (want '<rows> <cols>')");
    n = static_cast<std::uint64_t>(rows);
    dim = static_cast<int>(cols);
    break;
  }

  // Values arrive column-major — exactly the writer's column mode.
  KcbWriter writer(kcb_path, dim, n);
  const std::uint64_t need = n * static_cast<std::uint64_t>(dim);
  std::uint64_t got = 0;
  int cur_col = -1;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (is_blank(line)) continue;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok) {
      double v = 0.0;
      if (!parse_cell(tok, v)) fail(mtx_path, lineno, "not a number: " + tok);
      if (!std::isfinite(v)) fail(mtx_path, lineno, "non-finite value");
      if (std::fabs(v) > Point::kMaxAbsCoordinate)
        fail(mtx_path, lineno, out_of_bound());
      if (got == need)
        fail(mtx_path, lineno, "trailing garbage after the declared values");
      const int col = static_cast<int>(got / n);
      if (col != cur_col) {
        writer.begin_column(col);
        cur_col = col;
      }
      writer.column_value(v);
      ++got;
    }
  }
  if (got != need) {
    std::ostringstream os;
    os << "expected " << need << " values, got " << got;
    fail(mtx_path, lineno, os.str());
  }
  writer.finish();
  return n;
}

}  // namespace kc::dataset
