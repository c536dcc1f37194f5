#include "mpc/transport.hpp"

#include "mpc/wire.hpp"

namespace kc::mpc {

bool parse_backend(const std::string& s, Backend* out) noexcept {
  if (s == "local") {
    *out = Backend::Local;
    return true;
  }
  if (s == "wire") {
    *out = Backend::Wire;
    return true;
  }
  return false;
}

void Transport::open(int machines, int dim) {
  KC_EXPECTS(machines >= 1 && dim >= 1);
  machines_ = machines;
}

void Transport::end_round() {
  wire_.bytes_per_round.push_back(wire_.bytes - round_mark_);
  round_mark_ = wire_.bytes;
}

Message Transport::round_trip(const Message& msg) {
  const std::vector<std::uint8_t> frame = wire::encode(msg);
  wire_.bytes += frame.size();
  ++wire_.frames;
  Message out;
  const wire::DecodeStatus status =
      wire::decode(frame.data(), frame.size(), &out);
  KC_ENSURES(status == wire::DecodeStatus::Ok);
  return out;
}

std::unique_ptr<Transport> make_transport(Backend b) {
  return std::make_unique<Transport>(b);
}

}  // namespace kc::mpc
