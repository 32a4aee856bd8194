#include "parallel/message.hpp"

namespace ldga::parallel {

void Packer::put_raw(const void* data, std::size_t size) {
  const auto* begin = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), begin, begin + size);
}

Packer& Packer::pack_string(const std::string& value) {
  put_tag(detail::WireTag::Bytes);
  const auto count = static_cast<std::uint64_t>(value.size());
  put_raw(&count, sizeof(count));
  put_tag(detail::WireTag::I32);  // element marker for char data
  put_raw(value.data(), value.size());
  return *this;
}

std::string Unpacker::unpack_string() {
  expect_tag(detail::WireTag::Bytes);
  std::uint64_t count;
  get_raw(&count, sizeof(count));
  expect_tag(detail::WireTag::I32);
  std::string value(count, '\0');
  get_raw(value.data(), count);
  return value;
}

void Unpacker::expect_tag(detail::WireTag expected) {
  if (cursor_ >= bytes_.size()) {
    throw ParallelError("Unpacker: read past end of message");
  }
  const auto actual = static_cast<detail::WireTag>(bytes_[cursor_]);
  if (actual != expected) {
    throw ParallelError(
        "Unpacker: wire type mismatch (expected tag " +
        std::to_string(static_cast<int>(expected)) + ", found " +
        std::to_string(static_cast<int>(actual)) + ")");
  }
  ++cursor_;
}

void Unpacker::get_raw(void* out, std::size_t size) {
  if (cursor_ + size > bytes_.size()) {
    throw ParallelError("Unpacker: truncated message payload");
  }
  // An empty vector's data() may be null, and memcpy with a null
  // pointer is undefined even for zero bytes.
  if (size == 0) return;
  std::memcpy(out, bytes_.data() + cursor_, size);
  cursor_ += size;
}

}  // namespace ldga::parallel
