// Input distribution across MPC machines.
//
// The paper distinguishes two regimes: the deterministic 2-round algorithm
// tolerates *arbitrary (adversarial) but even* distributions, while the
// randomized 1-round algorithm assumes each point lands on a uniformly
// random machine.  These generators produce both, plus the specifically
// nasty case where all outliers concentrate on few machines.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point.hpp"
#include "util/rng.hpp"

namespace kc::mpc {

enum class PartitionKind : std::uint8_t {
  Random,       ///< each point to a uniform machine (1-round assumption)
  EvenSorted,   ///< sort by first coordinate, equal contiguous blocks —
                ///< clusters and outliers concentrate (adversarial)
  RoundRobin,   ///< deterministic even spread in input order
};

/// Index-level split of `pts` over m machines: part r lists the indices of
/// the points machine r receives, in that machine's arrival order.  The
/// copy-free layer under `partition_points` — consumers that hold the
/// points in a SoA buffer gather slices from these instead of materializing
/// per-machine AoS sets.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> partition_indices(
    const WeightedSet& pts, int m, PartitionKind kind, std::uint64_t seed);

/// Splits `pts` over m machines.  EvenSorted and RoundRobin yield sizes
/// differing by at most 1 ("evenly"); Random is even in expectation.
/// Implemented as a gather over `partition_indices` — the two views of a
/// partition always agree.
[[nodiscard]] std::vector<WeightedSet> partition_points(
    const WeightedSet& pts, int m, PartitionKind kind, std::uint64_t seed);

[[nodiscard]] const char* partition_name(PartitionKind kind) noexcept;
/// Parses "random" / "roundrobin" / "adversarial" (EvenSorted); returns
/// false (out untouched) otherwise.
[[nodiscard]] bool parse_partition(const std::string& name,
                                   PartitionKind* out) noexcept;

}  // namespace kc::mpc
