#include "mpc/wire.hpp"

#include <cstring>

#include "dataset/kcb.hpp"  // dataset::fnv1a — the .kcb checksum, reused

namespace kc::mpc::wire {

namespace {

// magic + dim + from + to + n_scalars + full_rows + shipped_rows.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kChecksumBytes = 8;

// Sanity caps on header-claimed sizes, checked before any size arithmetic
// so a corrupt frame can neither overflow the byte count nor drive a huge
// allocation.  Generous: 2^40 elements is far past any simulated payload.
constexpr std::uint64_t kMaxElems = std::uint64_t{1} << 40;
constexpr std::uint32_t kMaxDim = 1u << 20;

void put_bytes(std::vector<std::uint8_t>& buf, const void* src,
               std::size_t len) {
  if (len == 0) return;  // empty vectors may hand us data() == nullptr
  const auto* b = static_cast<const std::uint8_t*>(src);
  buf.insert(buf.end(), b, b + len);
}

template <typename T>
void put(std::vector<std::uint8_t>& buf, T v) {
  put_bytes(buf, &v, sizeof v);
}

template <typename T>
T get(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Exact frame size of `encode(msg)` in bytes.
std::size_t encoded_size(const Message& msg) noexcept {
  const std::size_t full = msg.payload.full_size();
  const auto dim =
      full > 0 ? static_cast<std::size_t>(msg.payload.coords().dim()) : 0;
  return kHeaderBytes + sizeof(double) * msg.scalars.size() +
         sizeof(double) * dim * full + sizeof(std::int64_t) * full +
         kChecksumBytes;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  const auto& payload = msg.payload;
  const std::size_t full = payload.full_size();
  const int dim = full > 0 ? payload.coords().dim() : 0;

  std::vector<std::uint8_t> buf;
  buf.reserve(encoded_size(msg));
  put(buf, kMagic);
  put(buf, static_cast<std::uint32_t>(dim));
  put(buf, static_cast<std::int32_t>(msg.from));
  put(buf, static_cast<std::int32_t>(msg.to));
  put(buf, static_cast<std::uint64_t>(msg.scalars.size()));
  put(buf, static_cast<std::uint64_t>(full));
  put(buf, static_cast<std::uint64_t>(payload.size()));
  put_bytes(buf, msg.scalars.data(), sizeof(double) * msg.scalars.size());
  for (int j = 0; j < dim; ++j)
    put_bytes(buf, payload.coords().col(j), sizeof(double) * full);
  put_bytes(buf, payload.weights().data(), sizeof(std::int64_t) * full);
  put(buf, dataset::fnv1a(buf.data(), buf.size()));
  return buf;
}

DecodeStatus decode(const std::uint8_t* data, std::size_t len, Message* out) {
  if (len < kHeaderBytes + kChecksumBytes) return DecodeStatus::Truncated;
  if (get<std::uint32_t>(data) != kMagic) return DecodeStatus::Corrupt;
  const auto dim = get<std::uint32_t>(data + 4);
  const auto from = get<std::int32_t>(data + 8);
  const auto to = get<std::int32_t>(data + 12);
  const auto n_scalars = get<std::uint64_t>(data + 16);
  const auto full = get<std::uint64_t>(data + 24);
  const auto shipped = get<std::uint64_t>(data + 32);

  if (n_scalars > kMaxElems || full > kMaxElems || dim > kMaxDim)
    return DecodeStatus::Corrupt;
  if (shipped > full) return DecodeStatus::Corrupt;
  if (full > 0 && dim == 0) return DecodeStatus::Corrupt;

  const std::size_t need =
      kHeaderBytes + sizeof(double) * (n_scalars + std::size_t{dim} * full) +
      sizeof(std::int64_t) * full + kChecksumBytes;
  if (len < need) return DecodeStatus::Truncated;
  if (len > need) return DecodeStatus::Corrupt;

  const std::uint64_t want = get<std::uint64_t>(data + (need - kChecksumBytes));
  if (dataset::fnv1a(data, need - kChecksumBytes) != want)
    return DecodeStatus::Corrupt;

  const std::uint8_t* p = data + kHeaderBytes;
  std::vector<double> scalars(n_scalars);
  if (n_scalars > 0)
    std::memcpy(scalars.data(), p, sizeof(double) * n_scalars);
  p += sizeof(double) * n_scalars;

  PointPayload payload;
  if (full > 0) {
    kernels::PointBuffer coords(static_cast<int>(dim));
    coords.reserve(full);
    std::vector<double> row(dim);
    for (std::uint64_t i = 0; i < full; ++i) {
      for (std::uint32_t j = 0; j < dim; ++j)
        row[j] = get<double>(p + sizeof(double) * (std::size_t{j} * full + i));
      coords.append(row.data());
    }
    p += sizeof(double) * std::size_t{dim} * full;
    std::vector<std::int64_t> weights(full);
    std::memcpy(weights.data(), p, sizeof(std::int64_t) * full);
    payload = PointPayload(std::move(coords), std::move(weights), shipped);
  }

  out->from = from;
  out->to = to;
  out->scalars = std::move(scalars);
  out->payload = std::move(payload);
  return DecodeStatus::Ok;
}

}  // namespace kc::mpc::wire
