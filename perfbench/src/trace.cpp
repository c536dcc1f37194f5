#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

namespace perfbench {

std::string Span::layer() const {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Recorder::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.pass = pass_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Recorder::end(int id) noexcept {
  const std::int64_t now = now_ns();
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "trace: span %d closed out of order\n", id);
    std::abort();
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now;
  return s.millis();
}

std::vector<SelfTime> Recorder::self_times() const {
  // Time each span's direct children cover (children nest inside their
  // parent on the one recording thread, so their durations add up).
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += s.millis();
  std::map<std::string, SelfTime> acc;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    SelfTime& t = acc[s.layer()];
    t.layer = s.layer();
    t.total_ms += s.millis();
    t.self_ms += s.millis() - child_ms[i];
    ++t.spans;
  }
  std::vector<SelfTime> out;
  out.reserve(acc.size());
  for (const auto& [layer, t] : acc) out.push_back(t);
  return out;
}

namespace {

/// Span names are "<layer>.<call>" over [A-Za-z0-9_.:-]; escape anyway so
/// the file stays valid JSON whatever a caller passes.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Recorder::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << "\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(s.layer()) << "\",\"ph\":\"X\"," << buf
       << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass << "}}";
  }
  os << "\n]}\n";
}

void Recorder::write_self_time_table(std::ostream& os) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-12s %12s %12s %8s\n", "layer",
                "self_ms", "total_ms", "spans");
  os << buf;
  for (const SelfTime& t : self_times()) {
    std::snprintf(buf, sizeof(buf), "%-12s %12.3f %12.3f %8zu\n",
                  t.layer.c_str(), t.self_ms, t.total_ms, t.spans);
    os << buf;
  }
}

}  // namespace perfbench
