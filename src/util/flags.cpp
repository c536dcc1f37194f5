#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>

namespace kc {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // boolean presence flag
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get_string(const std::string& name,
                              const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

void Flags::bad_number(const std::string& name, const std::string& value,
                       const std::string& expects) {
  std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", name.c_str(),
               expects.c_str(), value.c_str());
  std::exit(2);
}

std::vector<std::string> Flags::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const auto& k : known)
      if (k == name) {
        found = true;
        break;
      }
    if (!found) out.push_back(name);  // values_ is a sorted map
  }
  return out;
}

void Flags::require_known(const std::vector<std::string>& known,
                          std::size_t max_positional) const {
  const auto unknown = unknown_flags(known);
  for (const auto& name : unknown)
    std::fprintf(stderr, "error: unknown flag '--%s'\n", name.c_str());
  for (std::size_t i = max_positional; i < positional_.size(); ++i)
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 positional_[i].c_str());
  if (!unknown.empty() || positional_.size() > max_positional) std::exit(2);
}

}  // namespace kc
