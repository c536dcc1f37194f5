// Fixture: geometry/ owns the one Norm dispatch, so its switch is clean.
#pragma once

namespace fixture {

enum class Norm { L2, Linf, L1 };

template <typename F>
decltype(auto) with_norm(Norm n, F&& f) {
  switch (n) {
    case Norm::Linf: return f.template operator()<Norm::Linf>();
    case Norm::L1: return f.template operator()<Norm::L1>();
    case Norm::L2: break;
  }
  return f.template operator()<Norm::L2>();
}

}  // namespace fixture
