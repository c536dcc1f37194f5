// Transport layer: wire round-trips, the wire backend's encode → decode
// delivery path, and the backend-differential guarantee — every MPC
// pipeline's report (minus wire/timing extras) is byte-identical between
// the local and the wire backend, healthy or under injected faults at
// every recovery policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/pipeline.hpp"
#include "engine/registry.hpp"
#include "mpc/message.hpp"
#include "mpc/transport.hpp"
#include "mpc/wire.hpp"
#include "test_support.hpp"

namespace kc::mpc {
namespace {

Message make_message(int from, int to, std::size_t n_scalars,
                     std::size_t rows, int dim) {
  Message msg;
  msg.from = from;
  msg.to = to;
  for (std::size_t i = 0; i < n_scalars; ++i)
    msg.scalars.push_back(0.5 * static_cast<double>(i) - 3.0);
  if (rows > 0) {
    WeightedSet pts;
    for (std::size_t i = 0; i < rows; ++i) {
      Point p(dim);
      for (int j = 0; j < dim; ++j)
        p[j] = static_cast<double>(i) * 1.25 + static_cast<double>(j) / 7.0;
      pts.push_back({std::move(p), static_cast<std::int64_t>(i % 5 + 1)});
    }
    msg.payload = PointPayload(pts);
  }
  return msg;
}

void expect_same_message(const Message& a, const Message& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.to, b.to);
  EXPECT_EQ(a.scalars, b.scalars);
  EXPECT_EQ(a.payload.size(), b.payload.size());
  EXPECT_EQ(a.payload.full_size(), b.payload.full_size());
  EXPECT_EQ(a.payload.weights(), b.payload.weights());
  const auto& ca = a.payload.coords();
  const auto& cb = b.payload.coords();
  ASSERT_EQ(ca.size(), cb.size());
  if (ca.size() > 0) {
    ASSERT_EQ(ca.dim(), cb.dim());
    for (int j = 0; j < ca.dim(); ++j)
      for (std::size_t i = 0; i < ca.size(); ++i)
        // Bit-exact: host-endian memcpy on both sides of the frame.
        EXPECT_EQ(ca.col(j)[i], cb.col(j)[i]) << "row " << i << " col " << j;
  }
}

// The frame layout, written out independently of wire.cpp: a 40-byte
// header (magic, dim, from, to as 4 bytes each; scalar, full-row and
// shipped-row counts as 8 each), the scalars, dim coordinate columns and
// one weight column over the full rows, then an 8-byte checksum.
std::size_t frame_bytes(const Message& msg) {
  const std::size_t full = msg.payload.full_size();
  const std::size_t dim =
      full > 0 ? static_cast<std::size_t>(msg.payload.coords().dim()) : 0;
  return 40 + 8 * msg.scalars.size() + 8 * dim * full + 8 * full + 8;
}

// ---------------------------------------------------------------------------
// Wire frames.
// ---------------------------------------------------------------------------

TEST(Wire, RoundTripsAcrossShapes) {
  // Empty, scalars-only, single row, and sizes straddling SIMD lane
  // boundaries (the SoA columns cross the wire as contiguous runs).
  const struct {
    std::size_t scalars, rows;
    int dim;
  } shapes[] = {{0, 0, 1}, {3, 0, 1},  {0, 1, 2},  {2, 1, 7},
                {0, 5, 3}, {11, 7, 2}, {1, 9, 4}, {4, 16, 3}};
  for (const auto& sh : shapes) {
    const Message msg = make_message(2, 0, sh.scalars, sh.rows, sh.dim);
    const std::vector<std::uint8_t> frame = wire::encode(msg);
    EXPECT_EQ(frame.size(), frame_bytes(msg));
    Message back;
    ASSERT_EQ(wire::decode(frame.data(), frame.size(), &back),
              wire::DecodeStatus::Ok)
        << sh.scalars << " scalars, " << sh.rows << " rows, dim " << sh.dim;
    expect_same_message(msg, back);
  }
}

TEST(Wire, TruncatedPayloadKeepsItsCutTail) {
  Message msg = make_message(1, 0, 0, 6, 2);
  msg.payload.truncate_to(2);
  const std::int64_t cut_before = msg.payload.cut_weight();
  ASSERT_GT(cut_before, 0);

  const auto frame = wire::encode(msg);
  Message back;
  ASSERT_EQ(wire::decode(frame.data(), frame.size(), &back),
            wire::DecodeStatus::Ok);
  // Full rows travel; the delivered prefix and the cut-weight accounting
  // both survive the crossing.
  EXPECT_EQ(back.payload.size(), 2u);
  EXPECT_EQ(back.payload.full_size(), 6u);
  EXPECT_TRUE(back.payload.truncated());
  EXPECT_EQ(back.payload.cut_weight(), cut_before);
}

TEST(Wire, RejectsShortFrames) {
  const Message msg = make_message(0, 1, 4, 3, 2);
  const auto frame = wire::encode(msg);
  Message out;
  // Every proper prefix is Truncated (too short for the header) or — once
  // the header is readable but the body is short — also Truncated; never
  // Ok, never a crash.
  for (std::size_t len = 0; len < frame.size(); ++len)
    ASSERT_EQ(wire::decode(frame.data(), len, &out),
              wire::DecodeStatus::Truncated)
        << "prefix length " << len;
}

TEST(Wire, RejectsFlippedBytes) {
  const Message msg = make_message(0, 1, 2, 4, 3);
  const auto frame = wire::encode(msg);
  Message out;
  // Flip one byte at a time: decode must never silently accept.  (A flip
  // in a length field can masquerade as a short frame — Truncated — but
  // most land on the checksum: Corrupt.)
  for (std::size_t i = 0; i < frame.size(); i += 7) {
    auto bad = frame;
    bad[i] ^= 0x40u;
    ASSERT_NE(wire::decode(bad.data(), bad.size(), &out),
              wire::DecodeStatus::Ok)
        << "flipped byte " << i;
  }
}

TEST(Wire, RejectsTrailingBytes) {
  const Message msg = make_message(0, 1, 2, 0, 1);
  auto frame = wire::encode(msg);
  frame.push_back(0);  // longer than the header claims → framing bug
  Message out;
  EXPECT_EQ(wire::decode(frame.data(), frame.size(), &out),
            wire::DecodeStatus::Corrupt);
}

// ---------------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------------

TEST(LocalTransport, PassesThroughWithZeroWireBytes) {
  Transport t(Backend::Local);
  t.open(3, 2);
  Message msg = make_message(1, 0, 2, 3, 2);
  const Message copy = msg;
  const Message got = t.deliver(std::move(msg));
  expect_same_message(copy, got);
  t.end_round();
  EXPECT_EQ(t.wire().bytes, 0u);
  EXPECT_EQ(t.wire().frames, 0u);
}

TEST(Transport, WireModeDeliversDecodedFramesAndCountsTheirBytes) {
  Transport t(Backend::Wire);
  t.open(4, 3);
  // Two rounds of the Wire.RoundTripsAcrossShapes shapes plus a truncated
  // payload, whose cut rows still travel in the frame.
  const struct {
    std::size_t scalars, rows;
    int dim;
  } shapes[] = {{0, 0, 1}, {3, 0, 1}, {0, 1, 2}, {2, 1, 3},
                {0, 5, 3}, {11, 7, 2}, {1, 9, 3}, {4, 16, 3}};
  std::vector<std::vector<Message>> rounds(2);
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const auto& sh = shapes[i];
    rounds[i % 2].push_back(make_message(static_cast<int>(i % 4),
                                         static_cast<int>((i + 1) % 4),
                                         sh.scalars, sh.rows, sh.dim));
  }
  Message cut = make_message(3, 1, 2, 6, 3);
  cut.payload.truncate_to(2);
  rounds[1].push_back(std::move(cut));

  std::uint64_t total_bytes = 0;
  std::uint64_t total_frames = 0;
  std::vector<std::uint64_t> per_round;
  for (const auto& round : rounds) {
    std::uint64_t round_bytes = 0;
    for (const Message& msg : round) {
      round_bytes += frame_bytes(msg);
      // The delivered message is the one decoded from the frame.
      const Message got = t.deliver(Message(msg));
      expect_same_message(msg, got);
      EXPECT_EQ(got.payload.cut_weight(), msg.payload.cut_weight());
    }
    t.end_round();
    total_bytes += round_bytes;
    total_frames += round.size();
    per_round.push_back(round_bytes);
  }
  EXPECT_EQ(t.wire().bytes, total_bytes);
  EXPECT_EQ(t.wire().frames, total_frames);
  EXPECT_EQ(t.wire().bytes_per_round, per_round);
}

// ---------------------------------------------------------------------------
// Backend differential: wire == local, healthy and under chaos.
// ---------------------------------------------------------------------------

bool is_backend_varying(const std::string& key) {
  // Measured traffic and wall-clock extras legitimately differ across
  // backends; every other report field must match byte-for-byte.
  return key.rfind("wire_", 0) == 0 || key == "route_ms" ||
         key == "map_ms" || key == "eval_ms" || key == "direct_ms";
}

void expect_same_report(const engine::PipelineReport& a,
                        const engine::PipelineReport& b) {
  EXPECT_EQ(a.coreset_size, b.coreset_size);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.comm_words, b.comm_words);
  EXPECT_EQ(a.radius, b.radius);  // bit-exact, not approximate
  EXPECT_EQ(a.radius_direct, b.radius_direct);
  EXPECT_EQ(a.quality, b.quality);
  for (const auto& [key, value] : a.extra) {
    if (is_backend_varying(key)) continue;
    EXPECT_EQ(value, b.get(key, std::nan(""))) << "extra '" << key << "'";
  }
  for (const auto& [key, value] : b.extra) {
    if (is_backend_varying(key)) continue;
    EXPECT_EQ(value, a.get(key, std::nan(""))) << "extra '" << key << "'";
  }
}

struct DiffCase {
  std::string pipeline;
  bool chaos;
  RecoveryPolicy policy;

  [[nodiscard]] std::string name() const {
    std::string out = pipeline;
    for (auto& c : out)
      if (c == '-') c = '_';
    return out + (chaos ? std::string("_chaos_") +
                              kc::testing::policy_name(policy)
                        : std::string("_healthy"));
  }
};

// Keeps the test names free of gtest's raw byte dump of the parameter.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name(); }

class BackendDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(BackendDifferentialTest, WireMatchesLocalByteForByte) {
  const DiffCase& param = GetParam();
  engine::PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 8;
  cfg.eps = 0.5;
  cfg.dim = 2;
  cfg.seed = 4242;
  cfg.machines = 5;
  cfg.partition_seed = 17;
  cfg.rounds = 2;
  if (param.chaos) {
    cfg.fault_seed = 99;
    cfg.fault_crash = 0.2;
    cfg.fault_drop = 0.1;
    cfg.fault_truncate = 0.05;
    cfg.fault_policy = param.policy;
  }
  const engine::Workload w = engine::make_workload(650, cfg);
  const auto pipeline = engine::registry().make(param.pipeline);

  cfg.backend = Backend::Local;
  const engine::PipelineResult local = pipeline->execute(w, cfg);
  cfg.backend = Backend::Wire;
  const engine::PipelineResult wired = pipeline->execute(w, cfg);

  expect_same_report(local.report, wired.report);

  // The wire run measured its frame bytes, consistent with the model's
  // words accounting (comm_words at 8 bytes/word, ratio in (0, 2]).
  EXPECT_EQ(local.report.get("wire_bytes"), 0.0);
  if (wired.report.comm_words > 0) {
    EXPECT_GT(wired.report.get("wire_bytes"), 0.0);
    const double ratio = wired.report.get("wire_ratio");
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 2.0);
  }
}

std::vector<DiffCase> differential_cases() {
  std::vector<DiffCase> cases;
  for (const auto& name : engine::registry().names()) {
    if (engine::registry().make(name)->model() != "mpc") continue;
    cases.push_back({name, false, RecoveryPolicy::Retry});
    for (auto policy : {RecoveryPolicy::Retry, RecoveryPolicy::Reassign,
                        RecoveryPolicy::Degrade})
      cases.push_back({name, true, policy});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMpcPipelines, BackendDifferentialTest,
                         ::testing::ValuesIn(differential_cases()),
                         [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace kc::mpc
