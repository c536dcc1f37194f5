// Append-only JSON-lines bench/telemetry log.
//
// Shared by the experiment harnesses in bench/ and the kcenter_cli driver
// in tools/: every binary that accepts `--json <path>` appends one `{...}`
// record per measurement so performance and quality trajectories across
// PRs accumulate in one file (see BENCH_hotpaths.json, BENCH_engine.json).
// Lives in the library (not bench/) so that tools built against
// kc::kcenter alone can emit records; the namespace stays kc::bench
// because the record format is the bench-trajectory format.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace kc::bench {

/// One typed field of a JSON bench record.
class JsonField {
 public:
  JsonField(std::string key, long long v)
      : key_(std::move(key)), kind_(Kind::Int), int_(v) {}
  JsonField(std::string key, int v) : JsonField(std::move(key),
                                               static_cast<long long>(v)) {}
  JsonField(std::string key, double v)
      : key_(std::move(key)), kind_(Kind::Double), double_(v) {}
  JsonField(std::string key, std::string v)
      : key_(std::move(key)), kind_(Kind::Str), str_(std::move(v)) {}
  JsonField(std::string key, const char* v)
      : JsonField(std::move(key), std::string(v)) {}

 private:
  friend class JsonLog;

  /// Serializes as `"key": value`.
  [[nodiscard]] std::string to_json() const;

  enum class Kind { Int, Double, Str };
  std::string key_;
  Kind kind_;
  long long int_ = 0;
  double double_ = 0.0;
  std::string str_;
};

/// Append-only JSON-lines bench log (one `{...}` record per line), enabled
/// by the harness-wide `--json <path>` flag.  Every record carries the
/// experiment id plus the caller's fields, and an optional `tag` (from
/// `--json-tag`, e.g. a commit id) so trajectories across PRs can be told
/// apart in one file.  Disabled (no file touched) when the flag is absent.
class JsonLog {
 public:
  JsonLog() = default;  ///< disabled

  /// Reads `--json <path>` and `--json-tag <tag>`.
  [[nodiscard]] static JsonLog from_flags(const Flags& flags);

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  /// Appends one record: `{"experiment": ..., <fields>..., "tag": ...}`.
  /// `fields` may be a braced list, `{{"n", n}, {"ms", ms}}`.  No-op when
  /// disabled.
  void record(const std::string& experiment,
              const std::vector<JsonField>& fields) const;

 private:
  std::string path_;
  std::string tag_;
};

}  // namespace kc::bench
