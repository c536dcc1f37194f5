// Execution context of the MPC algorithms: the core context
// (util/exec_context.hpp — pool and prebuilt buffer) plus the two
// resources only a simulated round uses.  Every pointer is optional and
// non-owning; for each one left null the `Simulator` uses an inert
// default of its own (a one-thread pool, an injector on an all-zero
// `FaultConfig`, a local transport), so a round has one code path.

#pragma once

#include "util/exec_context.hpp"

namespace kc::mpc {

class FaultInjector;
class Transport;

struct ExecContext : kc::ExecContext {
  /// Deterministic fault schedule; nullptr = no injection.
  FaultInjector* faults = nullptr;
  /// Message transport, opened by the simulator on its own topology;
  /// nullptr = local hand-off.
  Transport* transport = nullptr;
};

}  // namespace kc::mpc
