// Fixture: a second Norm switch outside geometry/ is flagged (qualified or
// not); going through with_norm is clean.
#include "geometry/kernels.hpp"

namespace fixture {

template <Norm N>
int cover() { return static_cast<int>(N); }

int cover_switch(Norm n) {
  switch (n) {
    case Norm::L2: return cover<Norm::L2>();
    case fixture::Norm::Linf: return cover<Norm::Linf>();
    default: break;
  }
  return cover<Norm::L1>();
}

int cover_dispatch(Norm n) {
  return with_norm(n, []<Norm N>() { return cover<N>(); });
}

}  // namespace fixture
