// An in-process "parallel virtual machine": the subset of PVM the
// paper's implementation relies on — task spawning, addressed tagged
// message passing, and selective receive — with std::jthread tasks
// standing in for networked processes (DESIGN.md §2 substitution).
//
// The constructing thread is the master (TaskId 0). Spawned tasks get
// ids 1, 2, ... and run a user function with a TaskContext giving them
// their id and the send/receive primitives. Destruction closes every
// mailbox (unblocking any receiver with ParallelError) and joins.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "parallel/mailbox.hpp"
#include "parallel/message.hpp"

namespace ldga::parallel {

class VirtualMachine;

/// Handle a task uses to communicate; also usable by the master via
/// VirtualMachine::master_context().
///
/// Every payload is sealed (protocol-version byte + CRC-32, frame.hpp)
/// by send and verified by the receive family, so even the
/// thread-mailbox path follows a wire-integrity discipline: a corrupted
/// payload surfaces as a typed WireProtocolError naming the offending
/// peer, never a silent misread.
class TaskContext {
 public:
  TaskId id() const { return id_; }
  std::uint32_t task_count() const;

  /// Seals and delivers. Throws TransportClosed when the destination
  /// mailbox has been closed (task retired or machine halting).
  void send(TaskId destination, std::int32_t tag, Packer payload) const;

  /// Delivers pre-sealed bytes verbatim — the escape hatch the fault
  /// injector uses to put a deliberately corrupt payload on the wire.
  void send_raw(TaskId destination, std::int32_t tag,
                std::vector<std::uint8_t> sealed) const;

  Message receive(TaskId source = kAnySource,
                  std::int32_t tag = kAnyTag) const;
  std::optional<Message> try_receive(TaskId source = kAnySource,
                                     std::int32_t tag = kAnyTag) const;
  std::optional<Message> receive_for(std::chrono::milliseconds timeout,
                                     TaskId source = kAnySource,
                                     std::int32_t tag = kAnyTag) const;
  bool probe(TaskId source = kAnySource, std::int32_t tag = kAnyTag) const;

 private:
  friend class VirtualMachine;
  TaskContext(VirtualMachine* vm, TaskId id) : vm_(vm), id_(id) {}

  VirtualMachine* vm_;
  TaskId id_;
};

class VirtualMachine {
 public:
  VirtualMachine();
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  /// Starts a task running `body`; returns its TaskId (>= 1).
  /// The paper's farm spawns all slaves up front ("initiated at the
  /// beginning"), but spawn is internally synchronized so the master
  /// may also spawn replacement tasks later (quarantine respawn);
  /// existing TaskIds and in-flight messages are unaffected.
  TaskId spawn(std::function<void(TaskContext&)> body);

  /// Context for the constructing (master) thread.
  TaskContext master_context() { return TaskContext(this, kMasterTask); }

  /// Number of live addressable tasks including the master.
  std::uint32_t task_count() const;

  /// Closes one task's mailbox: its blocked receives throw
  /// TransportClosed and later sends to it fail. The thread itself
  /// keeps running until it next touches its mailbox — the transport
  /// uses this to retire a hung or faulty worker without waiting
  /// for it.
  void close_mailbox(TaskId id);

  /// Closes every mailbox, unblocking all receivers, and joins tasks.
  /// Idempotent; also performed by the destructor.
  void halt();

 private:
  friend class TaskContext;

  Mailbox& mailbox_of(TaskId id);

  mutable std::mutex tasks_mutex_;
  // Mailbox addresses must stay stable across spawn(), hence unique_ptr.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // index == TaskId
  std::vector<std::jthread> threads_;
  bool halted_ = false;
};

}  // namespace ldga::parallel
