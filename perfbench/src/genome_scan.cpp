// genome_scan: a synthetic .pgs panel opened through
// PackedGenotypeStore::open (with its CRC pass), then the pipelined
// run_genome_pipeline — the LD prefilter sweep feeding streaming top-K
// admission feeding concurrent sync window GAs.
//
// The store is written once per seed into the cache directory and
// reused. Prefilter workers plus concurrent windows never exceed the
// available cores. The traced side composes the same pipeline from
// its public pieces (score_windows_streaming → StreamingTopK::offer →
// WindowScanScheduler) over a decorator store that counts plane words,
// so each prefilter window, admission offer and scheduler call gets a
// span. Per-window GA time and the admission cost are measured by
// replaying them after the run, outside the timed job.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "analysis/genome_pipeline.hpp"
#include "analysis/ld_prefilter.hpp"
#include "ga/window_scan.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/packed_store.hpp"
#include "genomics/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ldga;

constexpr std::uint32_t kPanelSnps = 250'000;
constexpr std::uint32_t kWindowSnps = 64;
constexpr std::uint32_t kStrideSnps = 48;
constexpr std::uint32_t kKeepWindows = 8;

/// Forwards to a store and counts the plane words it hands out.
class CountingStore final : public genomics::GenotypeStore {
 public:
  explicit CountingStore(const genomics::GenotypeStore& inner)
      : inner_(inner) {}

  std::uint32_t individual_count() const override {
    return inner_.individual_count();
  }
  std::uint32_t snp_count() const override { return inner_.snp_count(); }
  std::uint32_t words_per_snp() const override {
    return inner_.words_per_snp();
  }
  genomics::Genotype at(std::uint32_t individual,
                        genomics::SnpIndex snp) const override {
    return inner_.at(individual, snp);
  }
  std::span<const std::uint64_t> low_plane(
      genomics::SnpIndex snp) const override {
    words_.fetch_add(inner_.words_per_snp(), std::memory_order_relaxed);
    return inner_.low_plane(snp);
  }
  std::span<const std::uint64_t> high_plane(
      genomics::SnpIndex snp) const override {
    words_.fetch_add(inner_.words_per_snp(), std::memory_order_relaxed);
    return inner_.high_plane(snp);
  }
  void prefetch_loci(genomics::SnpIndex first,
                     std::uint32_t count) const override {
    inner_.prefetch_loci(first, count);
  }

  std::uint64_t plane_words() const {
    return words_.load(std::memory_order_relaxed);
  }

 private:
  const genomics::GenotypeStore& inner_;
  mutable std::atomic<std::uint64_t> words_{0};
};

/// bench_genome_scan's window GA, stopped at an evaluation budget per
/// window instead of after 15 stagnant generations: the stagnation stop
/// made the GA stage's work vary ±10% with the seed's selected windows.
ga::WindowScanConfig scan_config(std::uint64_t seed) {
  ga::WindowScanConfig config;
  config.ga.min_size = 2;
  config.ga.max_size = 4;
  config.ga.population_size = 30;
  config.ga.min_subpopulation = 5;
  config.ga.crossovers_per_generation = 6;
  config.ga.mutations_per_generation = 10;
  config.ga.stagnation_generations = 1000;
  config.ga.max_generations = 1000;
  config.ga.max_evaluations = 1000;
  config.ga.seed = seed;
  config.migrate_elites = 3;
  return config;
}

/// The planted SNPs, stored next to the panel.
bool load_truth(const std::string& path, std::vector<genomics::SnpIndex>& out) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return false;
  unsigned count = 0;
  bool ok = std::fscanf(in, "%u", &count) == 1 && count < 1000;
  for (unsigned k = 0; ok && k < count; ++k) {
    unsigned snp = 0;
    ok = std::fscanf(in, "%u", &snp) == 1;
    out.push_back(snp);
  }
  std::fclose(in);
  return ok;
}

/// Writes the panel (and its truth file) unless this seed's are cached.
std::vector<genomics::SnpIndex> ensure_panel(const std::string& store_path,
                                             std::uint64_t seed) {
  const std::string truth_path = store_path + ".truth";
  std::vector<genomics::SnpIndex> planted;
  if (std::filesystem::exists(store_path) && load_truth(truth_path, planted)) {
    return planted;
  }
  genomics::SyntheticStoreConfig data;
  data.cohort.snp_count = kWindowSnps;  // signal chunk = one window
  data.cohort.affected_count = 150;
  data.cohort.unaffected_count = 150;
  data.cohort.unknown_count = 0;
  data.cohort.active_snp_count = 3;
  data.total_snps = kPanelSnps;
  data.chunk_snps = 4096;
  Rng rng(derive_seed(seed, 21));
  const genomics::SyntheticStoreResult written =
      genomics::write_synthetic_store(store_path, data, rng);
  planted = written.truth.snps;
  const std::string tmp = truth_path + ".tmp";
  if (std::FILE* out = std::fopen(tmp.c_str(), "w")) {
    std::fprintf(out, "%zu", planted.size());
    for (const auto snp : planted) std::fprintf(out, " %u", snp);
    std::fprintf(out, "\n");
    if (std::fclose(out) == 0) std::filesystem::rename(tmp, truth_path);
  }
  return planted;
}

std::vector<std::uint32_t> begins(std::vector<ga::WindowSpec> windows) {
  std::vector<std::uint32_t> out;
  for (const auto& window : windows) out.push_back(window.begin);
  std::sort(out.begin(), out.end());
  return out;
}

bool same_scan(const ga::WindowScanResult& a, const ga::WindowScanResult& b) {
  bool same = a.best_fitness == b.best_fitness &&
              a.best_snps == b.best_snps && a.evaluations == b.evaluations &&
              a.windows.size() == b.windows.size();
  for (std::size_t w = 0; same && w < a.windows.size(); ++w) {
    same = a.windows[w].best_fitness == b.windows[w].best_fitness &&
           a.windows[w].best_snps == b.windows[w].best_snps &&
           a.windows[w].evaluations == b.windows[w].evaluations;
  }
  return same;
}

std::uint64_t total_pairs(const std::vector<analysis::WindowScore>& scores) {
  std::uint64_t pairs = 0;
  for (const auto& score : scores) pairs += score.pairs;
  return pairs;
}

double generations(const ga::WindowScanResult& scan) {
  double sum = 0.0;
  for (const auto& window : scan.windows) sum += window.generations;
  return sum;
}

}  // namespace

void run_genome_scan(const Options& options, Report& report, Trace* trace) {
  const std::string store_path = options.cache_dir + "/genome_scan-" +
                                 std::to_string(options.seed) + ".pgs";
  const std::vector<genomics::SnpIndex> planted =
      ensure_panel(store_path, options.seed);
  const std::vector<ga::WindowSpec> windows =
      ga::plan_windows(kPanelSnps, kWindowSnps, kStrideSnps);

  const std::uint32_t concurrent = std::max(1u, options.cores / 2);
  const std::uint32_t prefilter_workers =
      std::max(1u, options.cores - concurrent);
  analysis::GenomePipelineConfig config;
  config.prefilter.workers = prefilter_workers;
  config.keep_windows = kKeepWindows;
  config.scan = scan_config(derive_seed(options.seed, 22));
  config.scan.concurrent_windows = concurrent;
  config.mode = analysis::PipelineMode::kPipelined;
  config.validate();
  report.threads.set("compute_threads", prefilter_workers + concurrent);
  report.threads.set("prefilter_workers", prefilter_workers);
  report.threads.set("concurrent_windows", concurrent);

  report.peak_rss_source = reset_peak_rss()
                                ? "median over jobs of the job's own VmHWM"
                                : "VmHWM (the kernel refused a reset)";

  std::vector<analysis::WindowScore> first_scores;
  std::vector<ga::WindowSpec> first_selected;
  std::vector<genomics::SnpIndex> first_champion;
  bool selections_agree = true;

  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    const genomics::PackedGenotypeStore store =
        genomics::PackedGenotypeStore::open(store_path);
    return seconds(start, Clock::now());
  };

  const auto run_one = [&](bool traced, std::uint32_t run) -> Job {
    Job job;
    job.traced = traced;
    Trace* const spans = traced ? trace : nullptr;
    const Clock::time_point open_start = Clock::now();
    const genomics::PackedGenotypeStore store =
        genomics::PackedGenotypeStore::open(store_path);
    const Clock::time_point open_end = Clock::now();
    job.setup_s = seconds(open_start, open_end);
    if (spans != nullptr) {
      spans->record("genomics.store_open", 0, run, open_start, open_end);
    }
    Numbers& c = job.counters;

    std::vector<analysis::WindowScore> scores;
    std::vector<ga::WindowSpec> selected;
    ga::WindowScanResult scan;
    const Clock::time_point start = Clock::now();
    if (spans == nullptr) {
      analysis::GenomePipelineResult result = analysis::run_genome_pipeline(
          store, store.panel(), store.statuses(), windows, config);
      job.wall_s = seconds(start, Clock::now());
      c.set("sweep_s", result.prefilter_seconds);
      c.set("scan_tail_s", result.scan_tail_seconds);
      scores = std::move(result.scores);
      selected = std::move(result.selected);
      scan = std::move(result.scan);
    } else {
      // run_genome_pipeline's pipelined leg, from its public parts.
      const CountingStore counting(store);
      double sink_s = 0.0;
      std::int64_t first_admit = -1;
      Clock::time_point sweep_start;
      Clock::time_point sweep_end;
      {
        ScopedSpan root(spans, "job", 0, run);
        std::optional<ga::WindowScanScheduler> scheduler;
        {
          ScopedSpan span(spans, "ga.scheduler_start", root.id(), run);
          scheduler.emplace(counting, store.panel(), store.statuses(),
                            config.scan, config.keep_windows);
        }
        analysis::StreamingTopK admission(
            static_cast<std::uint32_t>(windows.size()), config.keep_windows);
        scores.reserve(windows.size());
        sweep_start = Clock::now();
        {
          ScopedSpan sweep(spans, "analysis.prefilter_sweep", root.id(), run);
          Clock::time_point last = Clock::now();
          analysis::score_windows_streaming(
              counting, windows, config.prefilter,
              [&](const analysis::WindowScore& score) {
                const Clock::time_point enter = Clock::now();
                spans->record("analysis.prefilter_window", sweep.id(), run,
                              last, enter);
                scores.push_back(score);
                const std::vector<analysis::WindowScore> admitted =
                    admission.offer(score);
                const Clock::time_point offered = Clock::now();
                spans->record("analysis.admission_offer", sweep.id(), run,
                              enter, offered);
                if (!admitted.empty() && first_admit < 0) {
                  first_admit = static_cast<std::int64_t>(scores.size() - 1);
                }
                for (const analysis::WindowScore& window : admitted) {
                  counting.prefetch_loci(window.window.begin,
                                         window.window.count);
                  selected.push_back(window.window);
                  scheduler->enqueue(window.window);
                }
                last = Clock::now();
                if (!admitted.empty()) {
                  spans->record("ga.scheduler_enqueue", sweep.id(), run,
                                offered, last);
                }
                sink_s += seconds(enter, last);
              });
        }
        sweep_end = Clock::now();
        ScopedSpan finish(spans, "ga.scheduler_finish", root.id(), run);
        scan = scheduler->finish();
      }
      const Clock::time_point done = Clock::now();
      job.wall_s = seconds(start, done);
      std::sort(selected.begin(), selected.end(),
                [](const ga::WindowSpec& a, const ga::WindowSpec& b) {
                  return a.begin < b.begin;
                });
      c.set("sweep_s", seconds(sweep_start, sweep_end));
      c.set("sink_s", sink_s);
      c.set("scan_tail_s", seconds(sweep_end, done));
      c.set("first_admit_index", static_cast<double>(first_admit));
      c.set("plane_words", static_cast<double>(counting.plane_words()));
    }
    c.set("windows", static_cast<double>(windows.size()));
    c.set("pairs", static_cast<double>(total_pairs(scores)));
    c.set("evaluations", static_cast<double>(scan.evaluations));
    c.set("generations", generations(scan));

    if (first_scores.empty()) {
      first_scores = std::move(scores);
      first_selected = selected;
      first_champion = scan.best_snps;
    } else {
      selections_agree =
          selections_agree && begins(selected) == begins(first_selected);
    }
    return job;
  };
  run_jobs(options, 3, report, set_up, run_one);

  const genomics::PackedGenotypeStore store =
      genomics::PackedGenotypeStore::open(store_path);
  if (options.trace) {
    // Admission cost, replayed over the run's scores in sweep order.
    std::vector<double> replays;
    for (int rep = 0; rep < 5; ++rep) {
      analysis::StreamingTopK admission(
          static_cast<std::uint32_t>(first_scores.size()), kKeepWindows);
      const Clock::time_point start = Clock::now();
      std::size_t admitted = 0;
      for (const auto& score : first_scores) {
        admitted += admission.offer(score).size();
      }
      replays.push_back(seconds(start, Clock::now()));
      if (admitted != kKeepWindows) selections_agree = false;
    }
    std::sort(replays.begin(), replays.end());
    report.layer.set("admission_offer_s", replays[replays.size() / 2]);

    // Window GA time: each selected window's GA alone, sequentially.
    ga::WindowScanConfig single = config.scan;
    single.concurrent_windows = 1;
    double window_ga_s = 0.0;
    const auto run_id = static_cast<std::uint32_t>(report.jobs.size());
    for (const ga::WindowSpec& window : first_selected) {
      const Clock::time_point start = Clock::now();
      const std::vector<ga::WindowSpec> one{window};
      (void)ga::run_window_scan(store, store.panel(), store.statuses(), one,
                                single);
      const Clock::time_point end = Clock::now();
      trace->record("ga.window_ga", 0, run_id, start, end);
      window_ga_s += seconds(start, end);
    }
    report.layer.set("window_ga_s", window_ga_s);
    report.layer.set("words_per_snp", store.words_per_snp());
    report.layer.set("popcount_array_words",
                     2.0 * kWindowSnps * store.words_per_snp());
    report.layer.set("popcount_words_per_ns",
                     popcount_words_per_ns(2 * kWindowSnps *
                                           store.words_per_snp()));
  }
  report.peak_rss_mb = peak_rss_mb();

  // Gates, outside every timed region.
  const std::vector<ga::WindowSpec> ranked = analysis::top_windows(
      analysis::score_windows(store, windows, config.prefilter),
      kKeepWindows);
  report.gate("genome_scan.selection_equals_ranking",
              selections_agree && begins(ranked) == begins(first_selected),
              "streaming admission of every job selects "
              "top_windows(score_windows(...))");
  ga::WindowScanConfig sequential = config.scan;
  sequential.concurrent_windows = 1;
  const ga::WindowScanResult mapped = ga::run_window_scan(
      store, store.panel(), store.statuses(), ranked, sequential);
  const genomics::PackedGenotypeMatrix in_memory =
      store.slice_loci(0, store.snp_count());
  const ga::WindowScanResult memory = ga::run_window_scan(
      in_memory, store.panel(), store.statuses(), ranked, sequential);
  report.gate("genome_scan.mmap_equals_memory", same_scan(mapped, memory),
              "sequential scan over the mmap'd store is bit-identical to "
              "the in-memory slice");

  report_quality(report, {}, planted, first_champion, 0);
  report.layer.set("keep_windows", kKeepWindows);
}

}  // namespace perfbench
