#include "parallel/frame.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace ldga::parallel {

namespace {

constexpr std::size_t kSealBytes = 1 + sizeof(std::uint32_t);

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
T get(const std::uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

}  // namespace

std::vector<std::uint8_t> seal_payload(std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> sealed;
  sealed.reserve(kSealBytes + payload.size());
  sealed.push_back(kWireProtocolVersion);
  put(sealed, util::crc32(payload));
  sealed.insert(sealed.end(), payload.begin(), payload.end());
  return sealed;
}

std::vector<std::uint8_t> unseal_payload(std::vector<std::uint8_t> sealed) {
  if (sealed.size() < kSealBytes) {
    throw FrameError("sealed payload shorter than its header");
  }
  if (sealed[0] != kWireProtocolVersion) {
    throw FrameError("wire protocol version mismatch (got " +
                     std::to_string(static_cast<int>(sealed[0])) +
                     ", expected " +
                     std::to_string(static_cast<int>(kWireProtocolVersion)) +
                     ")");
  }
  const auto expected = get<std::uint32_t>(sealed.data() + 1);
  std::vector<std::uint8_t> payload(sealed.begin() + kSealBytes,
                                    sealed.end());
  if (util::crc32(payload) != expected) {
    throw FrameError("payload checksum mismatch (corrupt message)");
  }
  return payload;
}

}  // namespace ldga::parallel
