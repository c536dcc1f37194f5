#include "geometry/metric.hpp"

// The distance computations themselves (dist / dist_key / key_to_dist) are
// defined inline in metric.hpp on top of geometry/kernels.hpp; only the
// cold plumbing lives out of line.

namespace kc {

const char* Metric::name() const noexcept {
  switch (norm_) {
    case Norm::L2: return "L2";
    case Norm::Linf: return "Linf";
    case Norm::L1: break;
  }
  return "L1";
}

bool parse_norm(const std::string& name, Norm* out) noexcept {
  if (name == "l2") {
    *out = Norm::L2;
    return true;
  }
  if (name == "l1") {
    *out = Norm::L1;
    return true;
  }
  if (name == "linf") {
    *out = Norm::Linf;
    return true;
  }
  return false;
}

}  // namespace kc
