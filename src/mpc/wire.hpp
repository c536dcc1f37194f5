// Wire serialization of MPC messages (transport layer, paper §1 model).
//
// A `Message` travels as one length-checked frame, laid out so the SoA
// `PointPayload` ships without re-packing: each coordinate column is one
// contiguous run of float64, followed by the weight column — the same
// column-major discipline as the `.kcb` container, checksummed the same
// way (FNV-1a 64 over every byte that precedes the checksum).  Numeric
// fields are memcpy'd host-endian: the wire backend encodes and decodes
// in one process, so doubles cross bit-exactly and decode(encode(msg))
// reproduces the message contents exactly — the property the
// backend-differential tests pin.
//
// Frame layout (all offsets byte-packed, no alignment padding):
//
//   u32  magic        'KCW1'
//   u32  dim          payload coordinate dimension (0 when no payload)
//   i32  from, to     machine ids
//   u64  n_scalars
//   u64  full_rows    rows packed at send time
//   u64  shipped_rows delivered prefix (≤ full_rows; < after truncation)
//   f64  scalars[n_scalars]
//   f64  col_j[full_rows]   for j = 0..dim-1   (contiguous columns)
//   i64  weights[full_rows]
//   u64  checksum     FNV-1a 64 of all preceding bytes
//
// The *full* rows travel even for a truncated payload: the receiver's
// `cut_weight()` accounts the weight of the cut tail, so the tail must
// survive the crossing.  (Words-on-the-wire accounting still charges only
// the shipped prefix — wire bytes vs `comm_words` is exactly the
// `wire_ratio` the reports expose.)

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpc/message.hpp"

namespace kc::mpc::wire {

inline constexpr std::uint32_t kMagic = 0x4B435731u;  // 'KCW1'

/// Serializes a message into one checksummed frame.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& msg);

enum class DecodeStatus : std::uint8_t {
  Ok = 0,
  Truncated = 1,  ///< frame shorter than its header claims (short read)
  Corrupt = 2,    ///< bad magic, inconsistent lengths, or checksum mismatch
};

/// Parses one frame.  On Ok, `*out` holds the reconstructed message; on
/// any failure `*out` is untouched.  A frame longer than its header
/// claims is Corrupt (a caller hands over whole frames, so trailing
/// bytes mean a framing bug, not a short read).
[[nodiscard]] DecodeStatus decode(const std::uint8_t* data, std::size_t len,
                                  Message* out);

}  // namespace kc::mpc::wire
