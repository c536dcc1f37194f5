// Message transport for the MPC simulator.
//
// `Simulator::round` routes every non-self message through a `Transport`,
// whose `Backend` decides what "sending" means:
//
//  * `Local` — the in-process hand-off: the message moves by std::move,
//    nothing is copied or serialized, wire bytes stay 0.
//  * `Wire` — every delivery is serialized into one checksummed frame
//    (mpc/wire.hpp) and the message that lands in the inbox is the one
//    decoded from those bytes, so serialization fidelity is on the result
//    path.  The frame bytes are counted per round and reported next to
//    the model-predicted `comm_words` (`wire_bytes` / `wire_ratio`).
//
// The per-machine computation runs in this process on both backends; the
// seam is where a backend with real worker-side compute would plug in.
// A frame that fails to decode is a serialization bug, not a transport
// fault, so it is a postcondition failure rather than a lost message.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpc/message.hpp"
#include "util/check.hpp"

namespace kc::mpc {

enum class Backend : std::uint8_t { Local = 0, Wire = 1 };

/// Parses "local" / "wire"; returns false (out untouched) otherwise.
[[nodiscard]] bool parse_backend(const std::string& s, Backend* out) noexcept;

/// Measured transport traffic.  All zero on the local backend.
struct WireStats {
  std::uint64_t bytes = 0;   ///< encoded frame bytes, all rounds
  std::uint64_t frames = 0;  ///< deliveries that were encoded
  std::vector<std::uint64_t> bytes_per_round;
};

class Transport {
 public:
  explicit Transport(Backend backend = Backend::Local) noexcept
      : backend_(backend) {}
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sets the topology: `machines` machines in dimension `dim`.  Every
  /// later delivery must address a machine in [0, machines).  Re-opening
  /// (the simulator's constructor opens the transport it is handed) just
  /// resets the topology; the wire counters keep accumulating.
  void open(int machines, int dim);

  /// Conveys one message to machine `msg.to` and returns what arrives:
  /// the message itself on `Local`, its decoded wire frame on `Wire`.
  [[nodiscard]] Message deliver(Message msg) {
    KC_EXPECTS(msg.to >= 0 && msg.to < machines_);
    if (backend_ == Backend::Local) return msg;
    return round_trip(msg);
  }

  /// Round boundary: closes the current per-round byte window.
  void end_round();

  [[nodiscard]] const WireStats& wire() const noexcept { return wire_; }

 private:
  [[nodiscard]] Message round_trip(const Message& msg);

  Backend backend_;
  int machines_ = 0;
  WireStats wire_;
  std::uint64_t round_mark_ = 0;
};

/// Factory by backend tag.
[[nodiscard]] std::unique_ptr<Transport> make_transport(Backend b);

}  // namespace kc::mpc
