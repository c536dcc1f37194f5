// Fixture: a switch on dim() and integer-literal instantiations outside
// geometry/kernels.hpp are flagged; a switch on anything else, a template
// parameter's instantiation and a call through with_dim are clean.
#include "geometry/grid.hpp"
#include "geometry/kernels.hpp"

namespace fixture {

template <int D>
int walk() { return D; }

int walk_switch(const Grid& g) {
  const auto run = []<int D>() { return walk<D>(); };
  switch (g.dim()) {
    case 2: return run.template operator()<2>();
    default: break;
  }
  return run.template operator()<0>();
}

template <int D>
int walk_forward() {
  const auto run = []<int E>() { return walk<E>(); };
  return run.template operator()<D>();
}

int walk_other(int mode) {
  switch (mode) {
    case 1: return walk<1>();
    default: return walk<0>();
  }
}

int walk_dispatch(const Grid& g) {
  return with_dim(g.dim(), []<int D>() { return walk<D>(); }) + cells(g);
}

}  // namespace fixture
