// Typed errors of the transport layer. Separate from transport.hpp so
// low-level modules (payload sealing, mailboxes, virtual machine) can
// throw them without depending on the transport itself.
//
// Hierarchy (all recoverable, all under ParallelError so existing farm
// catch sites keep working):
//   TransportError        — any transport-layer failure
//   ├─ TransportClosed    — endpoint shut down (send/receive after close)
//   └─ FrameError         — a sealed payload failed its
//      │                    protocol-version / CRC-32 check
//      └─ WireProtocolError — FrameError with the offending peer attached
//                           (thrown where the source task is known)
#pragma once

#include <string>

#include "parallel/message.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

class TransportError : public ParallelError {
 public:
  explicit TransportError(const std::string& what) : ParallelError(what) {}
};

class TransportClosed : public TransportError {
 public:
  explicit TransportClosed(const std::string& what) : TransportError(what) {}
};

class FrameError : public TransportError {
 public:
  explicit FrameError(const std::string& what) : TransportError(what) {}
};

class WireProtocolError : public FrameError {
 public:
  WireProtocolError(const std::string& what, TaskId source, std::int32_t tag)
      : FrameError(what), source_(source), tag_(tag) {}

  TaskId source() const { return source_; }
  std::int32_t tag() const { return tag_; }

 private:
  TaskId source_;
  std::int32_t tag_;
};

}  // namespace ldga::parallel
