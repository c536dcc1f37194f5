// Shared helpers for the test suite: small deterministic instances and
// parameter grids used by the property-style TEST_P sweeps.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "mpc/faults.hpp"
#include "workload/generators.hpp"

namespace kc::testing {

/// Small planted instance intended for exact cross-checks.
[[nodiscard]] PlantedInstance tiny_planted(int k, std::int64_t z, int dim,
                                           std::uint64_t seed);

/// Parameter grid for property sweeps: (k, z, eps, dim, seed).
struct SweepParam {
  int k;
  std::int64_t z;
  double eps;
  int dim;
  std::uint64_t seed;

  [[nodiscard]] std::string name() const;
};

/// Canonical sweep used across modules (kept modest so the full suite runs
/// in seconds).
[[nodiscard]] std::vector<SweepParam> default_sweep();

/// Quality of a coreset pipeline: solve on the coreset, evaluate the same
/// centers on the full set, and compare with solving on the full set
/// directly.  ratio = radius(via coreset, on full) / radius(direct, on
/// full); ≤ 1+O(ε) for a valid coreset.
struct PipelineQuality {
  double radius_via_coreset = 0.0;  ///< coreset centers evaluated on full P
  double radius_direct = 0.0;       ///< direct solve evaluated on full P
  double ratio = 0.0;
};

[[nodiscard]] PipelineQuality compare_on_full(const WeightedSet& full,
                                              const WeightedSet& coreset,
                                              int k, std::int64_t z,
                                              const Metric& metric);

/// The `--fault-policy` spelling of a recovery policy, for test names.
[[nodiscard]] const char* policy_name(mpc::RecoveryPolicy policy);

}  // namespace kc::testing
