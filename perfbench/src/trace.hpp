// Span recorder for the benchmark's traced run.
//
// The traced run drives the library's layers from the benchmark's own code
// and wraps each call into a layer in a span: name ("<layer>.<call>"),
// start, end, parent span and pass id, all kept in memory.  At exit the
// recorder writes Chrome trace-event JSON (chrome://tracing, Perfetto) and
// a per-layer self-time table, where a span's self time is its duration
// minus the time its child spans cover.
//
// Spans are recorded from one thread (the benchmark's driver thread); the
// library's own worker threads are not traced.

#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two clock readings.
[[nodiscard]] inline double micros_between(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  std::string name;   ///< "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< −1 while open
  int parent = -1;    ///< index of the enclosing span, −1 at top level
  int pass = 0;

  [[nodiscard]] std::string layer() const;
  [[nodiscard]] double millis() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

/// Self and total time of one layer over all passes.
struct SelfTime {
  std::string layer;
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::size_t spans = 0;
};

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  /// Subsequent spans belong to pass `pass`.
  void set_pass(int pass) noexcept { pass_ = pass; }

  /// Opens a span nested in the innermost open one; returns its id.
  int begin(std::string name);
  /// Closes span `id`, which must be the innermost open span (aborts
  /// otherwise: spans nest by construction); returns its duration in ms.
  double end(int id) noexcept;

  /// Self and total time per layer, sorted by layer.
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  void write_chrome_json(std::ostream& os) const;

  /// Human-readable per-layer self-time table.
  void write_self_time_table(std::ostream& os) const;

 private:
  /// Nanoseconds since the recorder was created.
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int pass_ = 0;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, std::string name)
      : rec_(rec), id_(rec != nullptr ? rec->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  Recorder* rec_;
  int id_;
};

}  // namespace perfbench
