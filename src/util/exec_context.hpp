// Execution context of the core and engine layers.
//
// The environment a call runs in — a `ThreadPool*` and a prebuilt SoA
// `PointBuffer*` — kept apart from the knobs that select algorithm
// behavior (the Options structs), and passed by const-ref.  Both pointers
// are optional and non-owning; a default-constructed context means
// "single-threaded, no prebuilt buffer".  The MPC layer extends it with
// the resources only a simulated round uses (`mpc::ExecContext`,
// mpc/context.hpp).
//
// Forward declarations only, so any layer can include it without the pool
// or buffer definitions.

#pragma once

namespace kc {

class ThreadPool;

namespace kernels {
class PointBuffer;
}  // namespace kernels

struct ExecContext {
  /// Runs parallel phases; nullptr = sequential (bit-identical results).
  ThreadPool* pool = nullptr;
  /// Prebuilt SoA coordinates of the working set, when the caller has one
  /// (avoids a re-pack at the kernel boundary); nullptr = pack on demand.
  const kernels::PointBuffer* buffer = nullptr;
};

}  // namespace kc
