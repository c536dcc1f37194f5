#include "mpc/partition.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace kc::mpc {

namespace {

/// Order-preserving unsigned image of x: key(a) < key(b) iff a < b, so
/// −0.0 and +0.0 share a key.  Negative doubles have every bit flipped
/// (larger magnitude, smaller key); the others get the sign bit set.
std::uint64_t order_key(double x) noexcept {
  // x + 0.0 is x, except that −0.0 becomes +0.0.
  const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

constexpr int kDigitBits = 11;
constexpr int kPasses = 6;  // 6 · 11 ≥ 64 key bits
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

std::size_t digit(std::uint64_t key, int pass) noexcept {
  return static_cast<std::size_t>(key >> (pass * kDigitBits)) &
         (kBuckets - 1);
}

/// Point indices in lexicographic (x, index) order: a stable LSD radix sort
/// of (order_key(x), index) pairs, kept as two parallel arrays.  One read
/// of the points extracts every key and every pass's histogram; a pass
/// whose digit is the same for all n keys leaves the order as it is and is
/// skipped.
std::vector<std::uint32_t> order_by_x(const WeightedSet& pts) {
  const std::size_t n = pts.size();
  std::vector<std::uint64_t> key(n), key_next(n);
  std::vector<std::uint32_t> index(n), index_next(n);
  std::vector<std::array<std::uint32_t, kBuckets>> count(kPasses);
  for (auto& c : count) c.fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = order_key(pts[i].p[0]);
    index[i] = static_cast<std::uint32_t>(i);
    for (int pass = 0; pass < kPasses; ++pass)
      ++count[pass][digit(key[i], pass)];
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    auto& offset = count[pass];
    if (n == 0 || offset[digit(key[0], pass)] == n) continue;
    std::uint32_t sum = 0;
    for (auto& c : offset) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t to = offset[digit(key[i], pass)]++;
      key_next[to] = key[i];
      index_next[to] = index[i];
    }
    key.swap(key_next);
    index.swap(index_next);
  }
  return index;
}

}  // namespace

std::vector<WeightedSet> partition_points(const WeightedSet& pts, int m,
                                          PartitionKind kind,
                                          std::uint64_t seed) {
  KC_EXPECTS(m >= 1);
  KC_EXPECTS(pts.size() <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t n = pts.size();
  const auto machines = static_cast<std::size_t>(m);
  std::vector<WeightedSet> parts(machines);
  switch (kind) {
    case PartitionKind::Random: {
      Rng rng(seed);
      std::vector<std::uint32_t> machine(n);
      std::vector<std::size_t> sizes(machines, 0);
      for (std::size_t i = 0; i < n; ++i) {
        machine[i] = static_cast<std::uint32_t>(rng.uniform(machines));
        ++sizes[machine[i]];
      }
      for (std::size_t r = 0; r < machines; ++r) parts[r].reserve(sizes[r]);
      for (std::size_t i = 0; i < n; ++i) parts[machine[i]].push_back(pts[i]);
      break;
    }
    case PartitionKind::EvenSorted: {
      // Machine r takes the sorted ranks [⌈r·n/m⌉, ⌈(r+1)·n/m⌉), i.e. the
      // ranks with ⌊rank·m/n⌋ = r.
      const std::vector<std::uint32_t> order = order_by_x(pts);
      const auto first_rank = [&](std::size_t r) {
        return (r * n + machines - 1) / machines;
      };
      for (std::size_t r = 0; r < machines; ++r) {
        const std::size_t lo = first_rank(r), hi = first_rank(r + 1);
        parts[r].reserve(hi - lo);
        for (std::size_t rank = lo; rank < hi; ++rank)
          parts[r].push_back(pts[order[rank]]);
      }
      break;
    }
    case PartitionKind::RoundRobin: {
      for (std::size_t r = 0; r < machines; ++r)
        parts[r].reserve((n + machines - 1 - r) / machines);
      for (std::size_t i = 0; i < n; ++i)
        parts[i % machines].push_back(pts[i]);
      break;
    }
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
