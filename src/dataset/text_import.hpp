// Strict text importers: CSV and Matrix-Market → in-memory points or `.kcb`.
//
// Both CLIs used to carry private CSV loaders that silently *skipped* any
// line std::stod could not fully parse and silently *accepted* trailing
// garbage inside a cell ("1.5abc" parsed as 1.5).  This is the one shared
// parser now: every cell must be a complete finite number of magnitude at
// most Point::kMaxAbsCoordinate (past it a squared distance overflows),
// every data line must have a consistent column count, and every rejection
// names the line (and column) that caused it.  The only forgiven line is a single leading
// header (first non-comment line that parses as no numbers at all) — real
// CSV exports have one.
//
// Errors are reported as std::runtime_error ("path:line: reason") so the
// CLIs can print them and exit while tests can assert on them.

#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace kc::dataset {

/// Parses a CSV of points: one point per line, comma-separated float64
/// coordinates; with `weighted`, the last column is a positive integer
/// weight.  Blank lines and `#` comments are skipped; one leading header
/// line is tolerated; anything else malformed throws with the line number.
[[nodiscard]] WeightedSet read_csv_points(const std::string& path,
                                          bool weighted = false);

/// Converts a CSV of unit-weight points to `.kcb` in two passes (count,
/// then parse + stream to the writer) — fixed memory at any n.  Returns the
/// number of points written.
std::uint64_t csv_to_kcb(const std::string& csv_path,
                         const std::string& kcb_path);

/// Converts a Matrix-Market dense array ("matrix array real general",
/// size line `n dim`, values in column-major order) to `.kcb`.  The value
/// order matches the writer's column mode exactly, so the conversion is a
/// single streaming pass.  Returns the number of points written.
std::uint64_t mtx_to_kcb(const std::string& mtx_path,
                         const std::string& kcb_path);

}  // namespace kc::dataset
