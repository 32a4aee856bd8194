// The message layer under the master/slave farm: slaves are
// VirtualMachine threads, messages travel through sealed in-process
// mailboxes.
//
// The split mirrors PVM's API surface: InProcessTransport is the
// master's view (pvm_spawn / pvm_send / pvm_recv over the whole worker
// set), WorkerChannel is the slave's view (pvm_send / pvm_recv against
// the master only). Both speak Message values whose payloads are plain
// Packer bytes — sealing and checksumming happen in TaskContext,
// invisible above this interface.
//
// Fault model: the transport never throws out of receive() because a
// *worker* misbehaved. Worker death and corrupt replies are turned into
// control messages (transport_tag below) so the farm can requeue,
// quarantine, and respawn; exceptions out of transport calls mean the
// transport itself is unusable.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "parallel/message.hpp"
#include "parallel/transport_error.hpp"
#include "parallel/virtual_machine.hpp"

namespace ldga::parallel {

/// Control tags synthesized by the transport. Negative so they can
/// never collide with a protocol's own tags (the farm uses small
/// positive ones) or with the kAnyTag (-1) wildcard.
namespace transport_tag {
/// The worker is gone (killed, disconnected, or its body threw).
/// Payload: one packed string describing why. Synthesized at most once
/// per worker incarnation.
inline constexpr std::int32_t kWorkerLost = -101;
/// A reply from the worker failed its integrity check. Payload: one
/// packed string with the complaint. Only the one message was damaged;
/// the worker is still healthy and may be sent further work.
inline constexpr std::int32_t kCorruptFrame = -102;
}  // namespace transport_tag

/// How a worker's outgoing message should be sabotaged — the hook the
/// fault injector's transport faults ride on.
enum class FrameFault : std::uint8_t {
  kNone,
  kDrop,     ///< never deliver the message
  kCorrupt,  ///< flip a payload bit after sealing, breaking the CRC
};

/// Thrown by WorkerChannel::die to unwind the worker body. Not a
/// std::exception subclass on purpose: it must fly past the worker
/// loop's catch-and-report-error handling.
struct WorkerTerminated {
  std::string reason;
};

/// A worker's endpoint: talk to the master, nothing else.
class WorkerChannel {
 public:
  explicit WorkerChannel(TaskContext& context) : context_(context) {}

  /// Sends one message to the master. Throws TransportClosed when the
  /// master is gone (worker should exit quietly).
  void send_to_master(std::int32_t tag, Packer payload,
                      FrameFault fault = FrameFault::kNone);

  /// Blocks for the next message from the master. Throws
  /// TransportClosed on shutdown or retirement.
  Message receive_from_master() { return context_.receive(kMasterTask); }

  /// Dies abruptly, mid-protocol, without a goodbye — the injected
  /// "kill -9" fault. The master learns of it only through kWorkerLost.
  [[noreturn]] void die(const std::string& reason) {
    throw WorkerTerminated{reason};
  }

  /// Drops the connection to the master; as fatal as die(), announced
  /// with its own reason.
  [[noreturn]] void disconnect() { die("worker disconnected"); }

 private:
  TaskContext& context_;
};

/// The master's endpoint: spawn workers, address them by TaskId,
/// receive from any of them.
class InProcessTransport {
 public:
  /// The code every worker runs, on its own VirtualMachine thread.
  using WorkerBody = std::function<void(WorkerChannel&)>;

  explicit InProcessTransport(WorkerBody body);
  ~InProcessTransport();

  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  /// Starts one worker running the body; returns its address.
  TaskId spawn_worker();

  /// Sends one message to a worker. Throws TransportClosed when that
  /// worker is known to be gone or retired; the caller should treat the
  /// worker as lost (no kWorkerLost is synthesized for a failed send —
  /// the sender already knows). Throws TransportError for an id that
  /// was never spawned.
  void send_to_worker(TaskId worker, std::int32_t tag, Packer payload);

  /// Blocks for the next message from any worker (results and the
  /// control tags above).
  Message receive();

  /// As receive(), but gives up after `timeout`; empty on timeout.
  std::optional<Message> receive_for(std::chrono::milliseconds timeout);

  /// Force-retires a worker: its mailbox is closed, no kWorkerLost will
  /// be synthesized for it, and sends to it fail. Idempotent; unknown
  /// ids are ignored. Used for quarantine and for workers declared dead
  /// by deadline.
  void retire_worker(TaskId worker);

 private:
  struct WorkerState {
    bool exited = false;
    bool retired = false;
  };

  void run_worker(TaskContext& context);

  VirtualMachine vm_;
  TaskContext master_ = vm_.master_context();
  WorkerBody body_;
  std::mutex mutex_;
  std::unordered_map<TaskId, WorkerState> workers_;
  bool shutting_down_ = false;
};

}  // namespace ldga::parallel
