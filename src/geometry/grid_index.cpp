#include "geometry/grid_index.hpp"

namespace kc {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

GridIndex::GridIndex(double cell_width, int dim)
    : width_(cell_width), dim_(dim) {
  KC_EXPECTS(cell_width > 0.0);
  KC_EXPECTS(dim >= 1 && dim <= Point::kMaxDim);
  rehash(kMinSlots);
}

void GridIndex::reserve(std::size_t n) {
  std::size_t slots = slots_.size();
  while (slots < 2 * n) slots *= 2;
  if (slots != slots_.size()) rehash(slots);
  keys_.reserve(n * static_cast<std::size_t>(dim_));
  members_.reserve(n);
}

void GridIndex::rehash(std::size_t slots) {
  slots_.assign(slots, kNone);
  mask_ = slots - 1;
  const auto d = static_cast<std::size_t>(dim_);
  for (std::uint32_t cell = 0; cell < members_.size(); ++cell) {
    std::size_t s = hash(&keys_[cell * d]) & mask_;
    while (slots_[s] != kNone) s = (s + 1) & mask_;
    slots_[s] = cell;
  }
}

GridIndex::Key GridIndex::key_for(const double* coords) const noexcept {
  // Clamp before the cast: floor(c/w) can exceed the int64 range for
  // degenerate coordinate/width ratios, and the clamp (being monotone and
  // contracting) preserves the neighbor-enumeration superset guarantee.
  constexpr double kClamp = 2305843009213693952.0;  // 2^61
  Key key{};
  for (int j = 0; j < dim_; ++j) {
    double cell = std::floor(coords[j] / width_);
    if (cell > kClamp) cell = kClamp;
    if (cell < -kClamp) cell = -kClamp;
    key[static_cast<std::size_t>(j)] = static_cast<std::int64_t>(cell);
  }
  return key;
}

void GridIndex::insert(const double* coords, std::uint32_t idx) {
  const Key key = key_for(coords);
  const std::size_t s = slot_for(key.data());
  ++count_;
  if (slots_[s] != kNone) {
    members_[slots_[s]].push_back(idx);
    return;
  }
  // A new cell takes the empty slot; the load then stays at most 1/2.
  slots_[s] = static_cast<std::uint32_t>(members_.size());
  keys_.insert(keys_.end(), key.begin(), key.begin() + dim_);
  members_.push_back({idx});
  if (2 * members_.size() > slots_.size()) rehash(2 * slots_.size());
}

}  // namespace kc
