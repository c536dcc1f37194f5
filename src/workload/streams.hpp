// Stream scripts: insertion-only orders, fully dynamic insert/delete
// scripts over [Δ]^d, and sliding-window arrival sequences.

#pragma once

#include <cstdint>
#include <vector>

#include "geometry/grid.hpp"
#include "util/rng.hpp"

namespace kc {

/// A fully-dynamic stream (GridUpdate lives in geometry/grid.hpp).
using DynamicScript = std::vector<GridUpdate>;

/// Builds a dynamic script whose *final* alive multiset equals `final_set`:
/// inserts all of `final_set` plus `chaff` extra points (drawn uniformly
/// from [Δ]^dim), then deletes exactly the chaff, with insert/delete
/// operations interleaved at random subject to the turnstile constraint.
/// This lets a test compare the sketch state after the full script against
/// an offline computation on `final_set`.
[[nodiscard]] DynamicScript make_dynamic_script(
    const std::vector<GridPoint>& final_set, std::size_t chaff,
    std::int64_t delta, int dim, std::uint64_t seed);

/// Random arrival order for an insertion-only stream: a permutation of
/// 0..n-1 (indices into the caller's point set).
[[nodiscard]] std::vector<std::size_t> shuffled_order(std::size_t n,
                                                      std::uint64_t seed);

}  // namespace kc
