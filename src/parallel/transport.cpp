#include "parallel/transport.hpp"

#include <utility>

#include "parallel/frame.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

namespace {

Message corrupt_frame_message(const WireProtocolError& e) {
  Packer packer;
  packer.pack_string(e.what());
  Message message;
  message.source = e.source();
  message.tag = transport_tag::kCorruptFrame;
  message.payload = std::move(packer).take();
  return message;
}

}  // namespace

// send() already seals; the corrupt fault re-seals by hand so it can
// flip a bit *after* the CRC was computed.
void WorkerChannel::send_to_master(std::int32_t tag, Packer payload,
                                   FrameFault fault) {
  switch (fault) {
    case FrameFault::kNone:
      context_.send(kMasterTask, tag, std::move(payload));
      return;
    case FrameFault::kDrop:
      return;
    case FrameFault::kCorrupt: {
      auto sealed = seal_payload(std::move(payload).take());
      sealed.back() ^= 0x20u;  // last byte: payload tail, or the CRC
      context_.send_raw(kMasterTask, tag, std::move(sealed));
      return;
    }
  }
}

InProcessTransport::InProcessTransport(WorkerBody body)
    : body_(std::move(body)) {
  LDGA_EXPECTS(body_ != nullptr);
}

InProcessTransport::~InProcessTransport() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  vm_.halt();
}

TaskId InProcessTransport::spawn_worker() {
  const TaskId id =
      vm_.spawn([this](TaskContext& context) { run_worker(context); });
  std::lock_guard lock(mutex_);
  workers_.try_emplace(id);
  return id;
}

void InProcessTransport::send_to_worker(TaskId worker, std::int32_t tag,
                                        Packer payload) {
  {
    std::lock_guard lock(mutex_);
    const auto it = workers_.find(worker);
    if (it == workers_.end()) {
      throw TransportError("send to unknown worker " +
                           std::to_string(worker));
    }
    if (it->second.exited || it->second.retired) {
      throw TransportClosed("worker " + std::to_string(worker) +
                            " is gone");
    }
  }
  master_.send(worker, tag, std::move(payload));
}

Message InProcessTransport::receive() {
  try {
    return master_.receive();
  } catch (const WireProtocolError& e) {
    return corrupt_frame_message(e);
  }
}

std::optional<Message> InProcessTransport::receive_for(
    std::chrono::milliseconds timeout) {
  try {
    return master_.receive_for(timeout);
  } catch (const WireProtocolError& e) {
    return corrupt_frame_message(e);
  }
}

void InProcessTransport::retire_worker(TaskId worker) {
  {
    std::lock_guard lock(mutex_);
    const auto it = workers_.find(worker);
    if (it == workers_.end()) return;
    it->second.retired = true;
  }
  // Unblocks the worker's pending receive with TransportClosed; the
  // thread then returns and is joined at halt().
  vm_.close_mailbox(worker);
}

void InProcessTransport::run_worker(TaskContext& context) {
  WorkerChannel channel(context);
  std::string reason;
  bool graceful = false;
  try {
    // Each worker runs its own copy of the body: worker closures may
    // carry mutable by-value state (e.g. evaluation scratch arenas)
    // that must not be shared across slave threads.
    WorkerBody body = body_;
    body(channel);
    graceful = true;
  } catch (const TransportClosed&) {
    graceful = true;  // machine halting or worker retired
  } catch (const WorkerTerminated& killed) {
    reason = killed.reason;
  } catch (const std::exception& e) {
    reason = std::string("worker body threw: ") + e.what();
  } catch (...) {
    reason = "worker body threw a non-exception";
  }
  bool announce = !graceful;
  {
    std::lock_guard lock(mutex_);
    auto& state = workers_[context.id()];
    state.exited = true;
    announce = announce && !state.retired && !shutting_down_;
  }
  if (announce) {
    try {
      Packer packer;
      packer.pack_string(reason);
      context.send(kMasterTask, transport_tag::kWorkerLost,
                   std::move(packer));
    } catch (const ParallelError&) {
      // Master mailbox already closed; nobody left to tell.
    }
  }
}

}  // namespace ldga::parallel
