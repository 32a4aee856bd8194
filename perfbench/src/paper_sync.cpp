// paper_sync: the paper's synchronous master/slave GA on its own
// set-up — a 51-SNP cohort of 176 individuals (53 affected, 53
// unaffected, 70 unknown), haplotype sizes 2–6, T1 fitness without
// Monte Carlo, the generation-barrier GaEngine over a thread-pool
// backend with one worker per available core.
//
// The run is deterministic, so every job of a run repeats the same
// trajectory; the gate checks exactly that. The traced side wraps the
// backend in a decorator that spans each evaluate_batch call, and one
// extra single-worker job gives the parallel efficiency on the same
// trajectory.
#include <memory>
#include <string>

#include "ga/engine.hpp"
#include "genomics/synthetic.hpp"
#include "stats/evaluation_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ldga;

/// Cohorts one job runs the GA on, one after another, and the
/// pipeline executions each run may spend. The paper's stagnation rule
/// (100 generations) still applies, but runs to stagnation alone vary
/// 3.5–6.6 s across seeds, and the per-evaluation cost varies with the
/// cohort; a budget per run and several cohorts per job keep the work
/// of a job nearly the same for every seed.
constexpr std::uint32_t kCohorts = 4;
constexpr std::uint64_t kEvaluationBudget = 4000;

/// Times and counts each evaluate_batch call, spanning it when traced.
class TracedBackend final : public stats::EvaluationBackend {
 public:
  TracedBackend(std::shared_ptr<stats::EvaluationBackend> inner, Trace* trace,
                std::uint32_t run)
      : inner_(std::move(inner)), trace_(trace), run_(run) {}

  void set_parent(Trace::SpanId parent) { parent_ = parent; }

  std::vector<double> evaluate_batch(
      std::span<const stats::Candidate> batch) override {
    const Clock::time_point start = Clock::now();
    std::vector<double> out = inner_->evaluate_batch(batch);
    const Clock::time_point end = Clock::now();
    trace_->record("ga.evaluate_batch", parent_, run_, start, end);
    seconds_ += perfbench::seconds(start, end);
    ++calls_;
    candidates_ += batch.size();
    return out;
  }

  std::string_view name() const override { return inner_->name(); }
  std::uint32_t worker_count() const override {
    return inner_->worker_count();
  }
  parallel::FarmStats farm_stats() const override {
    return inner_->farm_stats();
  }

  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t candidates() const { return candidates_; }

 private:
  std::shared_ptr<stats::EvaluationBackend> inner_;
  Trace* trace_;
  std::uint32_t run_;
  Trace::SpanId parent_ = 0;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
  std::uint64_t candidates_ = 0;
};

ga::GaConfig paper_config(std::uint64_t seed) {
  ga::GaConfig config;
  config.min_size = 2;
  config.max_size = 6;
  config.population_size = 150;             // paper §5.2.1
  config.mutation_global_rate = 0.9;        // paper §5.2.1
  config.min_operator_rate = 0.01;          // paper §5.2.1 (delta)
  config.stagnation_generations = 100;      // paper §5.2.1
  config.random_immigrant_stagnation = 20;  // paper §5.2.1
  config.max_evaluations = kEvaluationBudget;
  config.seed = seed;
  return config;
}

/// What two runs of one deterministic trajectory must agree on.
struct Trajectory {
  std::uint64_t evaluations = 0;
  std::uint32_t generations = 0;
  std::vector<std::vector<genomics::SnpIndex>> champions;
  std::vector<double> fitness;

  void add(const ga::GaResult& result) {
    evaluations += result.evaluations;
    generations += result.generations;
    for (const auto& best : result.best_by_size) {
      champions.push_back(best.snps());
      fitness.push_back(best.fitness());
    }
  }
  bool operator==(const Trajectory&) const = default;
};

/// Sums a GA run's counters into a job's.
void count(Numbers& c, const ga::GaResult& result,
           const stats::HaplotypeEvaluator& evaluator) {
  const auto add = [&c](const std::string& name, double value) {
    c.set(name, c.get(name) + value);
  };
  add("evaluations", static_cast<double>(result.evaluations));
  add("generations", result.generations);
  add("failed_evaluations",
      static_cast<double>(evaluator.failed_evaluation_count()));
  add("cache_hits", static_cast<double>(result.cache_stats.hits));
  add("cache_misses", static_cast<double>(result.cache_stats.misses));
  add("pattern_extended", static_cast<double>(result.pattern_cache.extended));
  add("pattern_projected",
      static_cast<double>(result.pattern_cache.projected));
  add("pattern_fresh", static_cast<double>(result.pattern_cache.fresh));
  add("pattern_build_s", result.stage_timings.pattern_build_seconds);
  add("em_s", result.stage_timings.em_seconds);
  add("clump_s", result.stage_timings.clump_seconds);
  add("em_batch_runs", static_cast<double>(result.em_batch_runs));
  add("em_batch_lanes", static_cast<double>(result.em_batch_lanes));
  add("mc_replicates_run", static_cast<double>(result.mc_replicates_run));
  add("mc_replicates_saved", static_cast<double>(result.mc_replicates_saved));
  add("service_batch_s", result.eval_stats.batch_seconds);
  add("retries", static_cast<double>(result.farm_stats.retries));
  add("failures", static_cast<double>(result.farm_stats.failures));
}

}  // namespace

void run_paper_sync(const Options& options, Report& report, Trace* trace) {
  const stats::EvaluatorConfig evaluator_config;  // T1, no Monte Carlo
  std::vector<genomics::SyntheticDataset> cohorts;
  std::vector<ga::GaConfig> ga_configs;
  for (std::uint32_t k = 0; k < kCohorts; ++k) {
    genomics::SyntheticConfig data;  // defaults: 51 SNPs, 53/53/70, 3 active
    Rng data_rng(derive_seed(options.seed, 100 + k));
    cohorts.push_back(genomics::generate_synthetic(data, data_rng));
    ga_configs.push_back(
        paper_config(derive_seed(options.seed, 200 + k)).validated());
  }
  const std::uint32_t workers = options.cores;
  report.threads.set("compute_threads", workers);
  report.threads.set("pool_workers", workers);

  // Untimed reference for optimum_gap (traced runs only): exhaustive
  // sizes 2–3 per cohort.
  std::vector<std::vector<Optimum>> optimum(kCohorts);
  if (options.trace) {
    for (std::uint32_t k = 0; k < kCohorts; ++k) {
      const stats::HaplotypeEvaluator reference(cohorts[k].dataset,
                                                evaluator_config);
      optimum[k] = cached_optimum(
          options.cache_dir + "/paper_sync-" + std::to_string(options.seed) +
              "-" + std::to_string(k) + ".optimum",
          reference, 2, 3, workers);
    }
  }

  report.peak_rss_source = reset_peak_rss()
                                ? "median over jobs of the job's own VmHWM"
                                : "VmHWM (the kernel refused a reset)";

  std::vector<Trajectory> trajectories;
  std::vector<std::vector<genomics::SnpIndex>> planted_size_champion(kCohorts);

  // The program's set-up of one cohort: evaluator and pool backend.
  struct Built {
    std::unique_ptr<stats::HaplotypeEvaluator> evaluator;
    std::shared_ptr<stats::EvaluationBackend> backend;  // uses evaluator
  };
  const auto build = [&](std::uint32_t k, std::uint32_t pool_workers) {
    Built built;
    built.evaluator = std::make_unique<stats::HaplotypeEvaluator>(
        cohorts[k].dataset, evaluator_config);
    stats::BackendOptions backend_options;
    backend_options.workers = pool_workers;
    built.backend =
        stats::make_thread_pool_backend(*built.evaluator, backend_options);
    return built;
  };
  const auto set_up = [&] {
    std::vector<Built> all;
    const Clock::time_point start = Clock::now();
    for (std::uint32_t k = 0; k < kCohorts; ++k) {
      all.push_back(build(k, workers));
    }
    return seconds(start, Clock::now());
  };

  const auto run_one = [&](bool traced, std::uint32_t run,
                           std::uint32_t pool_workers,
                           const char* root_name) -> Job {
    Job job;
    job.traced = traced;
    Trace* const spans = traced ? trace : nullptr;
    Numbers& c = job.counters;
    c.set("workers", pool_workers);
    Trajectory trajectory;
    for (std::uint32_t k = 0; k < kCohorts; ++k) {
      const Clock::time_point setup_start = Clock::now();
      const Built built = build(k, pool_workers);
      job.setup_s += seconds(setup_start, Clock::now());
      const stats::HaplotypeEvaluator* const evaluator = built.evaluator.get();
      std::shared_ptr<stats::EvaluationBackend> backend = built.backend;

      std::shared_ptr<TracedBackend> decorator;
      if (spans != nullptr) {
        decorator = std::make_shared<TracedBackend>(backend, spans, run);
        backend = decorator;
      }
      ga::GaResult result;
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan root(spans, root_name, 0, run);
        ga::GaEngine engine(*evaluator, ga_configs[k], backend);
        ScopedSpan engine_span(spans, "ga.engine_run", root.id(), run);
        if (decorator) decorator->set_parent(engine_span.id());
        result = engine.run();
      }
      job.wall_s += seconds(start, Clock::now());

      count(c, result, *evaluator);
      if (decorator) {
        c.set("backend_s", c.get("backend_s") + decorator->seconds());
        c.set("batch_calls",
              c.get("batch_calls") + static_cast<double>(decorator->calls()));
        c.set("batch_candidates",
              c.get("batch_candidates") +
                  static_cast<double>(decorator->candidates()));
      }
      count_champions(c, result.best_by_size, 2, 3, k);
      trajectory.add(result);
      if (planted_size_champion[k].empty()) {
        planted_size_champion[k] =
            result.best_by_size.at(cohorts[k].truth.snps.size() - 2).snps();
      }
    }
    trajectories.push_back(std::move(trajectory));
    return job;
  };

  run_jobs(options, 3, report, set_up, [&](bool traced, std::uint32_t run) {
    return run_one(traced, run, workers, "job");
  });

  if (options.trace) {
    // The single-worker leg of ga.parallel_efficiency: same seeds, same
    // trajectories, one pool worker.
    Job single = run_one(true, static_cast<std::uint32_t>(report.jobs.size()),
                         1, "ga.single_worker_leg");
    report.layer.set("single_worker_wall_s", single.wall_s);
    report.layer.set("popcount_words_per_ns", popcount_words_per_ns(640));
  }
  report.peak_rss_mb = peak_rss_mb();

  bool repeatable = true;
  for (const Trajectory& other : trajectories) {
    repeatable = repeatable && other == trajectories.front();
  }
  report.gate("paper_sync.repeatable", repeatable,
              std::to_string(trajectories.size()) +
                  " runs of the same seeds: champions, fitness bits, "
                  "generations and evaluation counts must match exactly");
  for (std::uint32_t k = 0; k < kCohorts; ++k) {
    report_quality(report, optimum[k], cohorts[k].truth.snps,
                   planted_size_champion[k], k);
  }
  report.quality.set("evaluation_budget",
                     static_cast<double>(kEvaluationBudget));
}

}  // namespace perfbench
