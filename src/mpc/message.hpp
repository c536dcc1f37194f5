// Messages exchanged between simulated MPC machines.
//
// A `Message` carries either a scalar vector (the V_i radius tables of
// Algorithm 2) or a weighted point set packed once into the SoA
// `PointPayload`; words-on-the-wire follow the model's accounting (one
// coordinate = 1 word, a weighted point in R^d = d+1 words).  Split out
// of simulator.hpp so the transport layer (mpc/transport.hpp, which the
// simulator routes through) can name `Message` without a cycle.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/point_buffer.hpp"
#include "util/check.hpp"

namespace kc::mpc {

/// Weighted-point message payload, packed once at send time into the
/// canonical SoA layout (coordinates columns + a weight column).  Re-sends
/// under fault retries ship the same packing — no per-attempt re-pack —
/// and transport truncation is a prefix cut: `size()` (and therefore
/// `Message::words`) accounts only the rows that were actually delivered.
class PointPayload {
 public:
  PointPayload() = default;

  explicit PointPayload(const WeightedSet& pts) {
    if (pts.empty()) return;
    coords_ = kernels::PointBuffer(pts);
    weights_.reserve(pts.size());
    for (const auto& wp : pts) weights_.push_back(wp.w);
    shipped_ = pts.size();
  }

  /// Reassembly from wire-decoded columns (mpc/wire.hpp).  All rows packed
  /// at send time travel in the frame — a truncated payload keeps its cut
  /// rows so the receiver's `cut_weight()` still accounts the lost weight —
  /// with the delivered prefix marked by `shipped`.
  PointPayload(kernels::PointBuffer coords, std::vector<std::int64_t> weights,
               std::size_t shipped)
      : coords_(std::move(coords)),
        weights_(std::move(weights)),
        shipped_(shipped) {
    KC_EXPECTS(coords_.size() == weights_.size());
    KC_EXPECTS(shipped_ <= weights_.size());
  }

  /// Rows delivered (≤ full_size() after truncation).
  [[nodiscard]] std::size_t size() const noexcept { return shipped_; }
  /// Rows packed at send time.
  [[nodiscard]] std::size_t full_size() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return shipped_ == 0; }
  [[nodiscard]] bool truncated() const noexcept {
    return shipped_ < weights_.size();
  }

  /// Transport truncation: keep only the first `keep` rows.
  void truncate_to(std::size_t keep) noexcept {
    if (keep < shipped_) shipped_ = keep;
  }

  /// Weight carried by the rows cut off by truncation.
  [[nodiscard]] std::int64_t cut_weight() const noexcept {
    std::int64_t w = 0;
    for (std::size_t i = shipped_; i < weights_.size(); ++i) w += weights_[i];
    return w;
  }

  /// Delivered rows unpacked to the AoS boundary type.
  [[nodiscard]] WeightedSet unpack() const {
    WeightedSet out;
    out.reserve(shipped_);
    for (std::size_t i = 0; i < shipped_; ++i)
      out.push_back({coords_.point(i), weights_[i]});
    return out;
  }

  /// Serialization access (mpc/wire.hpp): every packed row, including the
  /// cut tail of a truncated payload.
  [[nodiscard]] const kernels::PointBuffer& coords() const noexcept {
    return coords_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& weights() const noexcept {
    return weights_;
  }

 private:
  kernels::PointBuffer coords_;
  std::vector<std::int64_t> weights_;
  std::size_t shipped_ = 0;
};

/// A message between machines.  Either payload may be empty.
struct Message {
  int from = 0;
  int to = 0;
  std::vector<double> scalars;
  PointPayload payload;

  /// Words on the wire: scalars + (dim+1) per *delivered* weighted point
  /// (a truncated payload is accounted at its truncated size).
  [[nodiscard]] std::size_t words(int dim) const noexcept {
    return scalars.size() + payload.size() * static_cast<std::size_t>(dim + 1);
  }
};

}  // namespace kc::mpc
