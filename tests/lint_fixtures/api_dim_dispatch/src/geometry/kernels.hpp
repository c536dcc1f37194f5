// Fixture: geometry/kernels.hpp owns the one dimension dispatch, so its
// switch and its literal instantiations are clean.
#pragma once

namespace fixture {

template <typename F>
decltype(auto) with_dim(int d, F&& f) {
  switch (d) {
    case 2: return f.template operator()<2>();
    case 3: return f.template operator()<3>();
    default: break;
  }
  return f.template operator()<0>();
}

}  // namespace fixture
