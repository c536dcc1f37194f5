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

}  // namespace kc
