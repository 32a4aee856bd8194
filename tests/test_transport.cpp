// The transport layer in isolation: CRC-32, sealed payloads, and the
// in-process transport's worker-loss machinery.
#include "parallel/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/frame.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ldga::parallel {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

// ---- CRC-32 ----------------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard check value for CRC-32/ISO-HDLC: crc("123456789").
  EXPECT_EQ(util::crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(util::crc32(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32, IncrementalFeedingMatchesOneShot) {
  const auto data = bytes_of("linkage disequilibrium");
  const auto whole = util::crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const auto first = util::crc32(
        std::span<const std::uint8_t>(data.data(), split));
    const auto second = util::crc32(
        std::span<const std::uint8_t>(data.data() + split,
                                      data.size() - split),
        first);
    EXPECT_EQ(second, whole) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  auto data = bytes_of("payload");
  const auto clean = util::crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1u;
    EXPECT_NE(util::crc32(data), clean) << "flip at " << i;
    data[i] ^= 1u;
  }
}

// ---- sealed payloads (the mailbox wire) ------------------------------

TEST(SealedPayload, RoundTrips) {
  const auto payload = bytes_of("hello farm");
  const auto sealed = seal_payload(payload);
  EXPECT_EQ(sealed.size(), payload.size() + 5);
  EXPECT_EQ(sealed[0], kWireProtocolVersion);
  EXPECT_EQ(unseal_payload(sealed), payload);
}

TEST(SealedPayload, EmptyPayloadRoundTrips) {
  EXPECT_TRUE(unseal_payload(seal_payload({})).empty());
}

TEST(SealedPayload, FlippedBitFailsTheChecksum) {
  auto sealed = seal_payload(bytes_of("hello farm"));
  sealed.back() ^= 0x01u;
  EXPECT_THROW(unseal_payload(std::move(sealed)), FrameError);
}

TEST(SealedPayload, WrongVersionIsRejected) {
  auto sealed = seal_payload(bytes_of("hello"));
  sealed[0] = kWireProtocolVersion + 1;
  try {
    unseal_payload(std::move(sealed));
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST(SealedPayload, ShortBufferIsRejected) {
  EXPECT_THROW(unseal_payload({kWireProtocolVersion, 0, 0}), FrameError);
}

// ---- in-process transport --------------------------------------------

constexpr std::int32_t kPing = 1;
constexpr std::int32_t kPong = 2;
constexpr std::int32_t kQuit = 3;

/// Doubles every i32 it receives until told to quit. `fault` sabotages
/// the *next* reply only.
InProcessTransport::WorkerBody echo_body(
    FrameFault fault = FrameFault::kNone) {
  return [fault](WorkerChannel& channel) mutable {
    for (;;) {
      Message message;
      try {
        message = channel.receive_from_master();
      } catch (const TransportClosed&) {
        return;
      }
      if (message.tag == kQuit) return;
      Unpacker unpacker = message.unpacker();
      Packer reply;
      reply.pack(unpacker.unpack<std::int32_t>() * 2);
      channel.send_to_master(kPong, std::move(reply), fault);
      fault = FrameFault::kNone;
    }
  };
}

void send_ping(InProcessTransport& transport, TaskId worker,
               std::int32_t value) {
  Packer packer;
  packer.pack(value);
  transport.send_to_worker(worker, kPing, std::move(packer));
}

TEST(InProcessTransport, EchoAcrossSeveralWorkers) {
  InProcessTransport transport(echo_body());
  std::vector<TaskId> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(transport.spawn_worker());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    send_ping(transport, workers[i], static_cast<std::int32_t>(i) + 10);
  }
  int sum = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const Message reply = transport.receive();
    EXPECT_EQ(reply.tag, kPong);
    sum += reply.unpacker().unpack<std::int32_t>();
  }
  EXPECT_EQ(sum, 2 * (10 + 11 + 12));
  for (const TaskId worker : workers) {
    transport.send_to_worker(worker, kQuit, Packer{});
  }
}

TEST(InProcessTransport, SendToUnknownWorkerIsATransportError) {
  InProcessTransport transport(echo_body());
  EXPECT_THROW(transport.send_to_worker(1234, kPing, Packer{}),
               TransportError);
}

TEST(InProcessTransport, ReceiveForTimesOutEmpty) {
  InProcessTransport transport(echo_body());
  (void)transport.spawn_worker();
  EXPECT_FALSE(transport.receive_for(30ms).has_value());
}

TEST(InProcessTransport, WorkerBodyEscapeBecomesWorkerLost) {
  InProcessTransport transport([](WorkerChannel& channel) {
    (void)channel.receive_from_master();
    throw std::runtime_error("evaluator blew up");
  });
  const TaskId worker = transport.spawn_worker();
  send_ping(transport, worker, 1);
  const Message lost = transport.receive();
  EXPECT_EQ(lost.tag, transport_tag::kWorkerLost);
  EXPECT_EQ(lost.source, worker);
  const std::string reason = lost.unpacker().unpack_string();
  EXPECT_NE(reason.find("evaluator blew up"), std::string::npos);
  EXPECT_THROW(transport.send_to_worker(worker, kPing, Packer{}),
               TransportClosed);
}

TEST(InProcessTransport, DieIsAnnouncedWithItsReason) {
  InProcessTransport transport([](WorkerChannel& channel) {
    (void)channel.receive_from_master();
    channel.die("injected kill");
  });
  const TaskId worker = transport.spawn_worker();
  send_ping(transport, worker, 1);
  const Message lost = transport.receive();
  EXPECT_EQ(lost.tag, transport_tag::kWorkerLost);
  EXPECT_NE(lost.unpacker().unpack_string().find("injected kill"),
            std::string::npos);
}

TEST(InProcessTransport, RetiredWorkerIsSilencedNotAnnounced) {
  InProcessTransport transport(echo_body());
  const TaskId worker = transport.spawn_worker();
  transport.retire_worker(worker);
  EXPECT_THROW(transport.send_to_worker(worker, kPing, Packer{}),
               TransportClosed);
  // The worker saw its mailbox close and exited *gracefully*: no
  // kWorkerLost may show up.
  EXPECT_FALSE(transport.receive_for(50ms).has_value());
}

TEST(InProcessTransport, CorruptReplySurfacesAsCorruptFrame) {
  InProcessTransport transport(echo_body(FrameFault::kCorrupt));
  const TaskId worker = transport.spawn_worker();
  send_ping(transport, worker, 21);
  const Message corrupt = transport.receive();
  EXPECT_EQ(corrupt.tag, transport_tag::kCorruptFrame);
  EXPECT_EQ(corrupt.source, worker);
  // Only the one message was damaged — the worker survives and the
  // next exchange is clean.
  send_ping(transport, worker, 5);
  const Message reply = transport.receive();
  EXPECT_EQ(reply.tag, kPong);
  EXPECT_EQ(reply.unpacker().unpack<std::int32_t>(), 10);
  transport.send_to_worker(worker, kQuit, Packer{});
}

TEST(InProcessTransport, DroppedReplyNeverArrives) {
  InProcessTransport transport(echo_body(FrameFault::kDrop));
  const TaskId worker = transport.spawn_worker();
  send_ping(transport, worker, 3);
  EXPECT_FALSE(transport.receive_for(50ms).has_value());
  // The worker itself is fine; only the reply was lost.
  send_ping(transport, worker, 4);
  EXPECT_EQ(transport.receive().unpacker().unpack<std::int32_t>(), 8);
  transport.send_to_worker(worker, kQuit, Packer{});
}

}  // namespace
}  // namespace ldga::parallel
