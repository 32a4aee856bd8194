// Asynchronous migration channels between islands.
//
// Each island owns one parallel::Mailbox; elites and cross-size
// offspring travel between islands as sealed PVM-style messages (the
// same Packer/Unpacker wire discipline the evaluation farm uses). Sends
// never block and receives are non-blocking drains — an island that
// has fallen behind simply finds more mail at its next loop top; no
// sender ever waits on a receiver, which is the property that keeps
// the engine barrier-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ga/haplotype_individual.hpp"
#include "parallel/mailbox.hpp"

namespace ldga::ga {

/// Message tags on the island mailboxes.
struct IslandTag {
  /// An elite copy offered to a neighbor (migration proper). The
  /// receiver inserts it under the usual §4.6 replacement rule.
  static constexpr std::int32_t kElite = 1;
  /// An evaluated offspring whose size belongs to another island
  /// (reduction/augmentation and inter-population crossover cross size
  /// classes): the breeding island keeps the adaptive-rate credit, the
  /// owning island gets the individual.
  static constexpr std::int32_t kOffspring = 2;
};

class MigrationRouter {
 public:
  explicit MigrationRouter(std::uint32_t island_count);

  std::uint32_t island_count() const {
    return static_cast<std::uint32_t>(mailboxes_.size());
  }

  /// Sends an evaluated individual to `to`'s mailbox. Returns false
  /// when the router is closed (shutdown) — the migrant is dropped,
  /// which is always safe: migration is an optimization, not a
  /// correctness dependency.
  [[nodiscard]] bool send(std::uint32_t from, std::uint32_t to,
                          std::int32_t tag,
                          const HaplotypeIndividual& individual);

  struct Incoming {
    std::uint32_t from = 0;
    std::int32_t tag = 0;
    HaplotypeIndividual individual;
  };

  /// Every message queued for `island` right now (possibly none).
  std::vector<Incoming> drain(std::uint32_t island);

  /// Closes every mailbox; pending mail is discarded by drains.
  void close();

  std::uint64_t sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<parallel::Mailbox>> mailboxes_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
};

}  // namespace ldga::ga
