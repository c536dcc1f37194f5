// Shared execution context for algorithm entry points.
//
// PRs 4/6/7 grew the same three environment fields — a `ThreadPool*`, a
// prebuilt SoA `PointBuffer*`, and a `FaultInjector*` — independently on
// every per-algorithm Options struct (five MPC variants, the radius
// oracle, Charikar).  `ExecContext` consolidates them, plus the transport
// backend the MPC simulator routes messages through, into one struct
// passed by const-ref: the *environment* a call runs in, kept separate
// from the *knobs* that select algorithm behavior (which stay in the
// slimmed Options structs).  Every pointer is optional and non-owning;
// a default-constructed context means "single-threaded, no prebuilt
// buffer, no fault injection, local transport".
//
// This is a leaf header (forward declarations only) so core/ and mpc/
// can both include it without dragging in the pool, buffer, fault, or
// transport definitions.

#pragma once

namespace kc {

class ThreadPool;

namespace kernels {
class PointBuffer;
}  // namespace kernels

namespace mpc {

class FaultInjector;
class Transport;

/// Execution environment shared by the MPC algorithms and the extraction
/// tail.  All pointers optional, non-owning; callees must outlive the call.
struct ExecContext {
  /// Runs parallel phases; nullptr = sequential (bit-identical results).
  ThreadPool* pool = nullptr;
  /// Prebuilt SoA coordinates of the working set, when the caller has one
  /// (avoids a re-pack at the kernel boundary); nullptr = pack on demand.
  const kernels::PointBuffer* buffer = nullptr;
  /// Deterministic fault schedule; nullptr (or inactive) = no injection.
  FaultInjector* faults = nullptr;
  /// Message transport for the MPC simulator; nullptr = local hand-off.
  /// The simulator opens it on its own topology.
  Transport* transport = nullptr;
};

}  // namespace mpc
}  // namespace kc
