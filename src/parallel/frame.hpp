// Wire integrity for Message payloads: a protocol-version byte and a
// CRC-32 on every payload that leaves its producer.
//
// The sealed bytes are [version][crc32][payload]; TaskContext::send
// seals and the receive side verifies, so even the thread-mailbox path
// follows the "everything on the wire is checked" rule, and a corrupted
// buffer is a typed FrameError, never a silent misread.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/transport_error.hpp"

namespace ldga::parallel {

/// Version byte carried by every sealed payload; bump when the Packer
/// wire format changes shape.
inline constexpr std::uint8_t kWireProtocolVersion = 1;

/// [version][crc32][payload]; the inverse of unseal_payload.
std::vector<std::uint8_t> seal_payload(std::vector<std::uint8_t> payload);

/// Verifies version + CRC and strips the seal. Throws FrameError on a
/// short buffer, version mismatch, or checksum failure.
std::vector<std::uint8_t> unseal_payload(std::vector<std::uint8_t> sealed);

}  // namespace ldga::parallel
