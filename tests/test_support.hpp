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

/// Uniform noise in [0, side]^dim — used where no optimum certificate is
/// needed (sketch stress tests, spread sweeps).
[[nodiscard]] WeightedSet make_uniform(std::size_t n, int dim, double side,
                                       std::uint64_t seed);

/// Drops weights.
[[nodiscard]] PointSet strip_weights(const WeightedSet& s);

/// Adversarial arrival order for the streaming algorithm: outliers first
/// (forces the algorithm to hold them), then cluster points sorted along
/// the first axis (keeps re-clustering pressure high).
[[nodiscard]] std::vector<std::size_t> adversarial_order(
    const std::vector<Point>& pts, const std::vector<std::size_t>& outliers);

/// A planted-instance family that stresses the summaries where the default
/// spread instance does not, while keeping the certified optimum bracket:
///  * outlier-burst — the z outliers form one clump of diameter ≤ 2R, which
///    a local summary cannot tell from a small cluster;
///  * duplicate-flood — every cluster point replicated ~8× with ≤ 1e-9·R
///    jitter (weights must add up exactly);
///  * heavy-tailed — cluster c holds a share ∝ (c+1)^−2 of the free mass,
///    so MPC machines see one cluster or only tail;
///  * drifting-centers — make_drifting's time-ordered drift.
struct AdversarialScenario {
  const char* name;
  PlantedInstance (*plant)(PlantedConfig cfg);  ///< sets its knobs, plants

  [[nodiscard]] PlantedInstance make(std::size_t n, int k, std::int64_t z,
                                     int dim, Norm norm,
                                     std::uint64_t seed) const;
};

/// Every scenario, in stable order.
[[nodiscard]] const std::vector<AdversarialScenario>& adversarial_scenarios();

}  // namespace kc::testing
