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

namespace kc::mpc {

enum class PartitionKind : std::uint8_t {
  Random,       ///< each point to a uniform machine (1-round assumption)
  EvenSorted,   ///< equal contiguous blocks of the points in (x, index)
                ///< order — clusters and outliers concentrate (adversarial)
  RoundRobin,   ///< deterministic even spread in input order
};

/// Splits `pts` (at most 2^32 − 1 points) over m machines; part r is what
/// machine r receives, in its arrival order.
///  * Random: each point, in input order, to machine `Rng(seed).uniform(m)`;
///    even in expectation.
///  * EvenSorted: sort the points by first coordinate x, ties by input
///    index, with −0.0 equal to +0.0; machine r takes the sorted ranks
///    [⌈r·n/m⌉, ⌈(r+1)·n/m⌉).
///  * RoundRobin: point i to machine i mod m.
/// EvenSorted and RoundRobin part sizes differ by at most 1 ("evenly").
[[nodiscard]] std::vector<WeightedSet> partition_points(
    const WeightedSet& pts, int m, PartitionKind kind, std::uint64_t seed);

[[nodiscard]] const char* partition_name(PartitionKind kind) noexcept;
/// Parses "random" / "roundrobin" / "adversarial" (EvenSorted); returns
/// false (out untouched) otherwise.
[[nodiscard]] bool parse_partition(const std::string& name,
                                   PartitionKind* out) noexcept;

}  // namespace kc::mpc
