#include "util/jsonlog.hpp"

#include <cstdio>
#include <fstream>

#include "util/rss.hpp"

namespace kc::bench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string JsonField::to_json() const {
  // Built with append() — a const char* first operand to operator+ trips a
  // GCC 12 -Wrestrict false positive (see examples/mpc_cluster.cpp).
  std::string out;
  out.append("\"").append(json_escape(key_)).append("\": ");
  char buf[64];
  switch (kind_) {
    case Kind::Int:
      std::snprintf(buf, sizeof buf, "%lld", int_);
      out.append(buf);
      break;
    case Kind::Double:
      std::snprintf(buf, sizeof buf, "%.10g", double_);
      out.append(buf);
      break;
    case Kind::Str:
      out.append("\"").append(json_escape(str_)).append("\"");
      break;
  }
  return out;
}

JsonLog JsonLog::from_flags(const Flags& flags) {
  JsonLog log;
  log.path_ = flags.get_string("json", "");
  log.tag_ = flags.get_string("json-tag", "");
  return log;
}

void JsonLog::record(const std::string& experiment,
                     const std::vector<JsonField>& fields) const {
  if (!enabled()) return;
  std::ofstream out(path_, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "warning: cannot append bench record to %s\n",
                 path_.c_str());
    return;
  }
  out << "{" << JsonField("experiment", experiment).to_json();
  for (const auto& f : fields) out << ", " << f.to_json();
  // Every record carries the process high-water RSS at record time, so any
  // trajectory doubles as a memory-footprint trajectory (0 = no probe).
  out << ", "
      << JsonField("peak_rss_mb",
                   static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0))
             .to_json();
  if (!tag_.empty()) out << ", " << JsonField("tag", tag_).to_json();
  out << "}\n";
}

}  // namespace kc::bench
