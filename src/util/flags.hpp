// Tiny command-line flag parser for the example, bench and tool binaries.
//
// Usage:
//   kc::Flags flags(argc, argv);
//   auto n   = flags.get<std::size_t>("n", 10000);
//   double e = flags.get<double>("eps", 0.25);
//   bool quick = flags.has("quick");
//
// Accepted syntaxes: --name=value, --name value, --flag (boolean presence).
// A numeric value parses whole into the requested type: "300x", "abc", an
// empty value, a negative value for an unsigned type and a value past the
// type's range are errors, never a prefix or a wrapped cast.

#pragma once

#include <charconv>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace kc {

class Flags {
 public:
  Flags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def) const;

  /// Numeric flag `name` as a T (an arithmetic type), or `def` when the flag
  /// is absent.  A value that does not parse whole into T prints
  /// "error: --name expects …" and exits with status 2: Flags serves only
  /// `main`s, and each of them would otherwise need the same handler.
  template <typename T>
  [[nodiscard]] T get(const std::string& name, T def) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    const std::string& v = it->second;
    T value{};
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, value);
    if (ec == std::errc{} && end == last) return value;
    if constexpr (std::is_integral_v<T>) {
      bad_number(name, v,
                 "an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    bad_number(name, v, "a number in double range");
  }

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags that were passed but are not in `known`, in sorted order.
  /// Strict drivers (kcenter_cli) reject such typos with usage text instead
  /// of silently ignoring them.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

  /// Exits 2 on a flag not in `known` or on more than `max_positional`
  /// positional arguments, printing "error: unknown flag '--name'" or
  /// "error: unexpected argument 'word'" for each: a typo such as
  /// `--esp 0.1` must not run silently with the default.  The examples and
  /// benches call it before any work.
  void require_known(const std::vector<std::string>& known,
                     std::size_t max_positional = 0) const;

 private:
  /// Prints "error: --name expects <expects>, got '<value>'"; exits 2.
  [[noreturn]] static void bad_number(const std::string& name,
                                      const std::string& value,
                                      const std::string& expects);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace kc
