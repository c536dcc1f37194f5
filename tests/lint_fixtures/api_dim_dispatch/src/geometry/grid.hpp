// Fixture: the rest of geometry/ may switch on a Norm, not on a dimension.
#pragma once

namespace fixture {

struct Grid {
  int dim() const { return 2; }
};

inline int cells(const Grid& g) {
  switch (g.dim()) {
    case 1: return 3;
    default: return 9;
  }
}

}  // namespace fixture
