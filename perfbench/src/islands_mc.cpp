// islands_mc: the asynchronous IslandEngine over EvaluationStream lanes
// (one lane per available core) on the bench_ga_e2e cohort shape — 60
// SNPs, 300 affected and 300 unaffected individuals — with T3 fitness
// and early-stopping CLUMP Monte Carlo, stopped at an evaluation
// budget.
//
// Work arrives as coalesced small claims from five island threads, not
// as generation batches, and Monte Carlo rather than EM dominates. The
// lane pool is a multi-tenant stream the benchmark builds (so its
// construction is timed as set-up) and attaches to the engine. Island
// telemetry becomes instant events in the trace. Async trajectories
// depend on scheduling, so the gate re-scores every champion through
// the full pipeline instead of comparing runs.
#include <memory>
#include <string>

#include "ga/island_engine.hpp"
#include "genomics/synthetic.hpp"
#include "stats/evaluation_service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ldga;

/// Cohorts one job runs the islands on, one after another, and the
/// evaluation budget of each run. The cohorts are the same for every
/// seed; the seed draws the GA and Monte Carlo streams. How much early
/// stopping saves depends on the cohort's signal: with cohorts drawn
/// from the seed, the replicates run by 8 cohorts ranged 1.9–2.9
/// million across seeds and the job wall time with them (5.0–7.3 s).
constexpr std::uint32_t kCohorts = 8;
constexpr std::uint64_t kEvaluationBudget = 1500;

stats::EvaluatorConfig evaluator_config(bool monte_carlo) {
  stats::EvaluatorConfig config;
  config.fitness_statistic = stats::FitnessStatistic::T3;
  config.clump.monte_carlo_trials = monte_carlo ? 1200 : 0;
  config.clump.monte_carlo_workers = 1;
  config.clump.mc_early_stop = monte_carlo;
  config.clump.mc_min_batch = 64;
  config.clump.mc_significance = 0.3;
  return config.validated();
}

ga::IslandConfig island_config(std::uint64_t seed, std::uint32_t lanes) {
  ga::IslandConfig config;
  config.ga.min_size = 2;
  config.ga.max_size = 6;
  config.ga.population_size = 36;
  config.ga.min_subpopulation = 6;
  config.ga.crossovers_per_generation = 8;
  config.ga.mutations_per_generation = 12;
  config.ga.stagnation_generations = 1000;  // the budget ends the run
  config.ga.random_immigrant_stagnation = 5;
  config.ga.max_generations = 100000;
  config.ga.max_evaluations = kEvaluationBudget;
  config.ga.seed = seed;
  config.lanes = lanes;
  return config.validated();
}

}  // namespace

void run_islands_mc(const Options& options, Report& report, Trace* trace) {
  const std::uint32_t lanes = options.cores;
  std::vector<genomics::SyntheticDataset> cohorts;
  std::vector<stats::EvaluatorConfig> configs;
  std::vector<ga::IslandConfig> island_configs;
  for (std::uint32_t k = 0; k < kCohorts; ++k) {
    genomics::SyntheticConfig data;
    data.snp_count = 60;
    data.affected_count = 300;
    data.unaffected_count = 300;
    data.unknown_count = 0;
    data.active_snp_count = 4;
    Rng data_rng(derive_seed(0, 300 + k));
    cohorts.push_back(genomics::generate_synthetic(data, data_rng));
    configs.push_back(evaluator_config(true));
    configs.back().monte_carlo_seed = derive_seed(options.seed, 500 + k);
    island_configs.push_back(
        island_config(derive_seed(options.seed, 400 + k), lanes));
  }
  const std::uint32_t island_count = island_configs[0].ga.max_size -
                                     island_configs[0].ga.min_size + 1;
  report.threads.set("compute_threads", lanes);
  report.threads.set("stream_lanes", lanes);
  report.threads.set("island_threads", island_count);

  // Untimed reference for optimum_gap (traced runs only), cached per
  // cohort. T3 is a statistic of the estimated table; Monte Carlo only
  // adds p-values, so the reference enumerates without it.
  std::vector<std::vector<Optimum>> optimum(kCohorts);
  if (options.trace) {
    for (std::uint32_t k = 0; k < kCohorts; ++k) {
      const stats::HaplotypeEvaluator reference(cohorts[k].dataset,
                                                evaluator_config(false));
      optimum[k] = cached_optimum(options.cache_dir + "/islands_mc-cohort" +
                                      std::to_string(k) + ".optimum",
                                  reference, 2, 3, options.cores);
    }
  }

  report.peak_rss_source = reset_peak_rss()
                                ? "median over jobs of the job's own VmHWM"
                                : "VmHWM (the kernel refused a reset)";

  bool rescored = true;
  std::string rescore_detail = "every champion re-scores exactly";
  std::vector<std::vector<genomics::SnpIndex>> planted_size_champion(kCohorts);

  // The program's set-up of one cohort: evaluator and the lane pool,
  // with the islands' completion queues opened on it.
  struct Built {
    std::unique_ptr<stats::HaplotypeEvaluator> evaluator;
    std::unique_ptr<stats::EvaluationStream> stream;  // uses evaluator
    std::uint32_t queue_base = 0;
  };
  const auto build = [&](std::uint32_t k) {
    Built built;
    built.evaluator = std::make_unique<stats::HaplotypeEvaluator>(
        cohorts[k].dataset, configs[k]);
    stats::EvaluationStreamConfig stream_config;
    stream_config.lanes = island_configs[k].lanes;
    stream_config.max_coalesce = island_configs[k].max_coalesce;
    built.stream =
        std::make_unique<stats::EvaluationStream>(island_count, stream_config);
    built.queue_base = built.stream->open_queues(*built.evaluator, island_count);
    return built;
  };
  const auto set_up = [&] {
    std::vector<Built> all;
    const Clock::time_point start = Clock::now();
    for (std::uint32_t k = 0; k < kCohorts; ++k) all.push_back(build(k));
    return seconds(start, Clock::now());
  };

  const auto run_one = [&](bool traced, std::uint32_t run) -> Job {
    Job job;
    job.traced = traced;
    Trace* const spans = traced ? trace : nullptr;
    Numbers& c = job.counters;
    const auto add = [&c](const std::string& name, double value) {
      c.set(name, c.get(name) + value);
    };
    c.set("lanes", lanes);
    for (std::uint32_t k = 0; k < kCohorts; ++k) {
      const Clock::time_point setup_start = Clock::now();
      const Built built = build(k);
      job.setup_s += seconds(setup_start, Clock::now());
      const stats::HaplotypeEvaluator* const evaluator = built.evaluator.get();
      stats::EvaluationStream& stream = *built.stream;

      ga::IslandEngine engine(*evaluator, island_configs[k]);
      engine.attach_stream(stream, built.queue_base);
      if (spans != nullptr) {
        engine.set_event_callback([spans, run](const ga::IslandEvent& event) {
          spans->instant(
              ga::to_string(event.kind), run, Clock::now(),
              "\"island\": " + std::to_string(event.island) +
                  ", \"step\": " + std::to_string(event.step) +
                  ", \"best\": " + std::to_string(event.best_fitness) +
                  ", \"in_flight\": " + std::to_string(event.in_flight) +
                  ", \"evaluations\": " + std::to_string(event.evaluations));
        });
      }
      ga::IslandRunResult result;
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan root(spans, "job", 0, run);
        ScopedSpan engine_span(spans, "ga.island_run", root.id(), run);
        result = engine.run();
      }
      job.wall_s += seconds(start, Clock::now());
      stream.close();  // folds the per-lane service counters
      const stats::EvaluationStreamStats stream_stats = stream.stats();

      add("evaluations", static_cast<double>(result.evaluations));
      add("budget", static_cast<double>(kEvaluationBudget));
      add("failed_evaluations",
          static_cast<double>(evaluator->failed_evaluation_count()));
      add("failed_offspring", static_cast<double>(result.failed_offspring));
      add("island_steps", static_cast<double>(result.total_steps));
      add("migrations", static_cast<double>(result.migrations_sent));
      add("cache_hits", static_cast<double>(evaluator->cache_stats().hits));
      add("cache_misses", static_cast<double>(evaluator->cache_stats().misses));
      const stats::PatternCacheStats patterns = evaluator->incremental_stats();
      add("pattern_extended", static_cast<double>(patterns.extended));
      add("pattern_projected", static_cast<double>(patterns.projected));
      add("pattern_fresh", static_cast<double>(patterns.fresh));
      const stats::StageTimings stages = evaluator->stage_timings();
      add("pattern_build_s", stages.pattern_build_seconds);
      add("em_s", stages.em_seconds);
      add("clump_s", stages.clump_seconds);
      add("em_batch_runs", static_cast<double>(evaluator->em_batch_runs()));
      add("em_batch_lanes", static_cast<double>(evaluator->em_batch_lanes()));
      add("mc_replicates_run",
          static_cast<double>(evaluator->mc_replicates_run()));
      add("mc_replicates_saved",
          static_cast<double>(evaluator->mc_replicates_saved()));
      add("service_batch_s", stream_stats.service.batch_seconds);
      add("stream_completed", static_cast<double>(stream_stats.completed));
      add("stream_dispatch_rounds",
          static_cast<double>(stream_stats.dispatch_rounds));
      add("stream_inflight_merges",
          static_cast<double>(stream_stats.inflight_merges));

      // Gate, outside the timed region: each champion's reported
      // fitness is what the full pipeline computes for its SNPs.
      for (const auto& best : result.best_by_size) {
        const double again = evaluator->evaluate_full(best.snps()).fitness;
        if (again != best.fitness() && rescored) {
          rescored = false;
          rescore_detail = "size " + std::to_string(best.size()) +
                           " champion reported " +
                           std::to_string(best.fitness()) +
                           " but re-scores to " + std::to_string(again);
        }
      }
      count_champions(c, result.best_by_size, 2, 3, k);
      if (planted_size_champion[k].empty()) {
        planted_size_champion[k] =
            result.best_by_size.at(cohorts[k].truth.snps.size() - 2).snps();
      }
    }
    return job;
  };
  run_jobs(options, 3, report, set_up, run_one);

  if (options.trace) {
    report.layer.set("popcount_words_per_ns", popcount_words_per_ns(640));
  }
  report.peak_rss_mb = peak_rss_mb();
  report.gate("islands_mc.champions_rescore", rescored, rescore_detail);
  for (std::uint32_t k = 0; k < kCohorts; ++k) {
    report_quality(report, optimum[k], cohorts[k].truth.snps,
                   planted_size_champion[k], k);
  }
}

}  // namespace perfbench
