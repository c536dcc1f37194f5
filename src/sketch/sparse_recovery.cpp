#include "sketch/sparse_recovery.hpp"

#include <algorithm>

namespace kc::sketch {

SparseRecovery::SparseRecovery(std::size_t capacity, std::uint64_t seed)
    : SparseRecovery(capacity, seed, draw_point(seed)) {}

SparseRecovery::SparseRecovery(std::size_t capacity, std::uint64_t seed,
                               std::uint64_t point)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      buckets_(std::max<std::size_t>(2 * capacity_, 8)),
      bucket_(buckets_),
      point_(point) {
  Rng rng(seed);
  (void)draw_point(rng);  // the own point's draw; the row seeds follow it
  for (std::size_t r = 0; r < kRows; ++r) {
    const PolyHash row(static_cast<int>(kIndependence), rng());
    for (std::size_t j = 0; j < kIndependence; ++j)
      coeffs_[j * kRows + r] = row.coefficients()[j];
  }
  cells_.resize(kRows * buckets_);
}

SparseRecovery::DecodeResult SparseRecovery::decode() const {
  std::vector<OneSparseCell> work = cells_;
  DecodeResult out;

  // Peel: scan for recoverable singleton cells until a full pass makes no
  // progress.  Each recovered key is subtracted from every row.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const auto rec = work[i].recover(point_);
      if (!rec) continue;
      out.items.push_back({rec->key, rec->count});
      const std::uint64_t x = embed_key(rec->key);
      const std::uint64_t d = signed_mod(-rec->count);
      const std::uint64_t rx = pow_mod(point_, x);
      for (const std::size_t j : cell_indices(x))
        work[j].add(x, -rec->count, d, rx);
      progress = true;
    }
  }
  out.complete = std::all_of(work.begin(), work.end(),
                             [](const OneSparseCell& c) { return c.empty(); });
  // Duplicate keys can appear if a key is recovered from two rows before
  // subtraction… it cannot: subtraction happens immediately after each
  // recovery.  Sort for deterministic output.
  std::sort(out.items.begin(), out.items.end(),
            [](const Item& a, const Item& b) { return a.key < b.key; });
  return out;
}

}  // namespace kc::sketch
