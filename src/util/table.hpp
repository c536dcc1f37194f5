// Aligned console-table printer.  The bench harnesses use this to emit
// paper-style result tables (one row per configuration / algorithm).

#pragma once

#include <string>
#include <vector>

namespace kc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; the number of cells must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment, a header rule, and `indent` leading
  /// spaces per line.
  [[nodiscard]] std::string to_string(int indent = 2) const;

  /// Convenience: render straight to stdout.
  void print(int indent = 2) const;


 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` significant decimals, trimming zeros.
[[nodiscard]] std::string fmt(double v, int prec = 3);
/// Formats an integer with thousands separators ("1,234,567").
[[nodiscard]] std::string fmt_count(long long v);

}  // namespace kc
