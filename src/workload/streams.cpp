#include "workload/streams.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace kc {

DynamicScript make_dynamic_script(const std::vector<GridPoint>& final_set,
                                  std::size_t chaff, std::int64_t delta,
                                  int dim, std::uint64_t seed) {
  Rng rng(seed);
  // Chaff points, drawn uniformly from the universe; chaff point j is
  // coordinates [j·dim, (j+1)·dim) of one flat array.
  const auto d = static_cast<std::size_t>(dim);
  std::vector<std::int64_t> extra(chaff * d);
  for (auto& x : extra)
    x = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(delta)));
  const auto chaff_point = [&](std::size_t j) {
    GridPoint g;
    g.dim = dim;
    std::copy_n(extra.begin() + static_cast<std::ptrdiff_t>(j * d), d,
                g.c.begin());
    return g;
  };

  // Operations: insert(final) ∪ insert(chaff) ∪ delete(chaff).  Emit by
  // simulation so a delete can only follow its matching insert (strict
  // turnstile validity, even with duplicate chaff coordinates).  The
  // inserts are shuffled as 4-byte indices — i < |final_set| is
  // final_set[i], the rest index the chaff — and the live chaff is kept as
  // indices into `extra`, so no point is copied before it is emitted.
  const std::size_t finals = final_set.size();
  const std::size_t total = finals + chaff;
  KC_EXPECTS(total <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> inserts(total);
  std::iota(inserts.begin(), inserts.end(), std::uint32_t{0});
  for (std::size_t i = total; i > 1; --i)
    std::swap(inserts[i - 1], inserts[rng.uniform(i)]);

  DynamicScript script;
  script.reserve(finals + 2 * chaff);
  std::vector<std::uint32_t> alive_chaff;  // inserted but not yet deleted
  std::size_t next_insert = 0;
  while (next_insert < total || !alive_chaff.empty()) {
    const bool can_insert = next_insert < total;
    const bool can_delete = !alive_chaff.empty();
    if (can_delete && (!can_insert || rng.bernoulli(0.4))) {
      const std::size_t pick = rng.uniform(alive_chaff.size());
      script.push_back({chaff_point(alive_chaff[pick]), -1});
      std::swap(alive_chaff[pick], alive_chaff.back());
      alive_chaff.pop_back();
    } else {
      KC_DCHECK(can_insert);
      const std::uint32_t i = inserts[next_insert++];
      if (i < finals) {
        script.push_back({final_set[i], +1});
      } else {
        script.push_back({chaff_point(i - finals), +1});
        alive_chaff.push_back(static_cast<std::uint32_t>(i - finals));
      }
    }
  }
  return script;
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
  return order;
}

}  // namespace kc
