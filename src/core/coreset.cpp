#include "core/coreset.hpp"

#include <cmath>

namespace kc {

double compose_eps_rounds(double eps, int rounds) noexcept {
  return std::pow(1.0 + eps, rounds) - 1.0;
}

}  // namespace kc
