#include "mpc/partition.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace kc::mpc {

std::vector<std::vector<std::uint32_t>> partition_indices(
    const WeightedSet& pts, int m, PartitionKind kind, std::uint64_t seed) {
  KC_EXPECTS(m >= 1);
  std::vector<std::vector<std::uint32_t>> parts(static_cast<std::size_t>(m));
  switch (kind) {
    case PartitionKind::Random: {
      Rng rng(seed);
      for (std::size_t i = 0; i < pts.size(); ++i)
        parts[rng.uniform(static_cast<std::uint64_t>(m))].push_back(
            static_cast<std::uint32_t>(i));
      break;
    }
    case PartitionKind::EvenSorted: {
      std::vector<std::size_t> order(pts.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return pts[a].p[0] < pts[b].p[0];
      });
      // Equal contiguous blocks of the sorted order.
      const std::size_t n = pts.size();
      for (std::size_t r = 0; r < n; ++r) {
        const auto machine = static_cast<std::size_t>(
            (r * static_cast<std::size_t>(m)) / std::max<std::size_t>(n, 1));
        parts[machine].push_back(static_cast<std::uint32_t>(order[r]));
      }
      break;
    }
    case PartitionKind::RoundRobin: {
      for (std::size_t i = 0; i < pts.size(); ++i)
        parts[i % static_cast<std::size_t>(m)].push_back(
            static_cast<std::uint32_t>(i));
      break;
    }
  }
  return parts;
}

std::vector<WeightedSet> partition_points(const WeightedSet& pts, int m,
                                          PartitionKind kind,
                                          std::uint64_t seed) {
  const auto idx = partition_indices(pts, m, kind, seed);
  std::vector<WeightedSet> parts(idx.size());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    parts[r].reserve(idx[r].size());
    for (const std::uint32_t i : idx[r]) parts[r].push_back(pts[i]);
  }
  return parts;
}

const char* partition_name(PartitionKind kind) noexcept {
  switch (kind) {
    case PartitionKind::Random: return "random";
    case PartitionKind::EvenSorted: return "adversarial";
    case PartitionKind::RoundRobin: return "round-robin";
  }
  return "?";
}

bool parse_partition(const std::string& name, PartitionKind* out) noexcept {
  if (name == "random") {
    *out = PartitionKind::Random;
    return true;
  }
  if (name == "roundrobin") {
    *out = PartitionKind::RoundRobin;
    return true;
  }
  if (name == "adversarial") {
    *out = PartitionKind::EvenSorted;
    return true;
  }
  return false;
}

}  // namespace kc::mpc
