// The one evaluation API every execution strategy implements.
//
// The GA hands a whole generation's offspring to EvaluationService as a
// batch; the service resolves cache hits and in-batch duplicates, and
// what remains — the candidates that genuinely need a pipeline run — is
// dispatched through this interface. Three implementations cover the
// paper's execution spectrum: a serial loop, a shared-memory thread
// pool, and the PVM-style master/slave farm of §4.5. The engine holds
// one EvaluationBackend pointer and never branches on a backend enum.
//
// Contract (the conformance suite in tests/test_evaluation_backend.cpp
// holds every implementation to it):
//   - evaluate_batch returns one fitness per candidate, in task order;
//   - candidates are evaluated with fitness_and_cache(), so pipeline
//     executions are counted and cached identically everywhere;
//   - a failing evaluation is retried up to farm_policy.max_task_retries
//     times; exhaustion raises parallel::FarmPhaseError carrying the
//     task index and attempt history;
//   - a configured parallel::FaultInjector is consulted once per
//     attempt at the true (phase, task index) coordinates, so injected
//     fault schedules reproduce exactly across backends.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "parallel/farm_policy.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/evaluator.hpp"

namespace ldga::stats {

/// A candidate haplotype: sorted, distinct SNP indices.
using Candidate = std::vector<genomics::SnpIndex>;

/// Construction-time knobs shared by every backend factory.
struct BackendOptions {
  /// Worker threads / farm slaves; 0 → hardware concurrency. Ignored by
  /// the serial backend.
  std::uint32_t workers = 0;
  /// Thread-pool backend only: run on this long-lived pool instead of
  /// spinning up a private one (`workers` is then ignored — the pool's
  /// size rules). The windowed genome scan builds many short-lived
  /// backends over per-window evaluators; sharing one pool turns
  /// per-window thread spin-up into a pointer copy. Fitness results
  /// are identical either way — the backend contract is worker-count
  /// invariant.
  std::shared_ptr<parallel::ThreadPool> pool;
  /// Retry/quarantine ladder. The serial and thread-pool backends honor
  /// max_task_retries (the quarantine fields only make sense for slaves
  /// and are ignored there).
  parallel::FarmPolicy farm_policy;
  /// Deterministic fault injection, consulted per (phase, task) attempt
  /// by every backend. Null = no faults.
  std::shared_ptr<parallel::FaultInjector> fault_injector;
};

class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  /// Scores every candidate, returning fitnesses in task order.
  /// Deterministic for a given evaluator regardless of worker count.
  virtual std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) = 0;

  virtual std::string_view name() const = 0;
  virtual std::uint32_t worker_count() const = 0;

  /// Health counters. The serial and thread-pool backends report their
  /// retry totals through the same structure the farm uses, so callers
  /// read one shape everywhere.
  virtual parallel::FarmStats farm_stats() const = 0;
};

/// Master evaluates everything itself, in order.
std::shared_ptr<EvaluationBackend> make_serial_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options = {});

/// Shared-memory pool; results are written by index, so ordering and GA
/// trajectory are unaffected by scheduling.
std::shared_ptr<EvaluationBackend> make_thread_pool_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options = {});

/// The paper's §4.5 message-passing master/slave farm.
std::shared_ptr<EvaluationBackend> make_farm_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options = {});

}  // namespace ldga::stats
