// Genome-scale data path, end to end: synthetic 100k-SNP packed store
// on disk → mmap open → LD prefilter over every window → windowed GA on
// the top-ranked windows — run twice, as the serial stage chain and as
// the overlapped pipeline, with the legs interleaved so OS cache state
// and clock drift hit both equally.
//
// Three claims are checked, matching the GenotypeStore and pipeline
// contracts:
//   1. bounded memory — the scan works against the mmap'd store through
//      window slices, so resident memory tracks the working window, not
//      the panel; VmRSS is sampled at each stage and the peak (VmHWM)
//      lands in the JSON;
//   2. safety — the sequential windowed GA over the mmap'd store walks
//      a bit-for-bit identical trajectory (same champions, same fitness
//      doubles, same evaluation counts) to the same scan over a fully
//      in-memory packed matrix of the same panel. Any divergence aborts
//      the benchmark: a fast wrong data path is worthless.
//   3. selection equivalence — the pipelined leg's streaming top-K
//      admission selects exactly the windows the full ranking selects.
//      Champion bits are NOT gated between the legs: overlapping
//      windows migrate elites, and the pipelined scheduler legitimately
//      sees a different (recorded) completion order.
// The speedup ratio is recorded, not enforced, here: on a single
// hardware thread the pipeline has nothing to overlap with, so the
// >= 1x expectation is CI's call, conditional on "cores" >= 2 in the
// machine context — the same refusal pattern as cross-ISA ratios.
//
// Flags: --engine sync|async, --concurrent-windows N,
// --prefilter-workers M (threads scoring LD windows, the calling thread
// included; 0 = hardware), --reps R.
// Results land in BENCH_genome_scan.json with the shared machine
// context so CI can judge comparability.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/genome_pipeline.hpp"
#include "analysis/ld_prefilter.hpp"
#include "bench_context.hpp"
#include "ga/window_scan.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/packed_store.hpp"
#include "genomics/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/evaluator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace ldga;

constexpr std::uint32_t kPanelSnps = 100'000;
constexpr std::uint32_t kWindowSnps = 64;
constexpr std::uint32_t kStrideSnps = 48;
constexpr std::uint32_t kGaWindows = 2;

/// "VmRSS" / "VmHWM" of /proc/self/status, in MiB (0 where absent).
double proc_status_mb(const char* key) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    mb = std::strtod(line + key_len + 1, nullptr) / 1024.0;  // kB → MiB
    break;
  }
  std::fclose(status);
  return mb;
}

ga::WindowScanConfig scan_config() {
  ga::WindowScanConfig config;
  config.ga.min_size = 2;
  config.ga.max_size = 4;
  config.ga.population_size = 30;
  config.ga.min_subpopulation = 5;
  config.ga.crossovers_per_generation = 6;
  config.ga.mutations_per_generation = 10;
  config.ga.stagnation_generations = 15;
  config.ga.max_generations = 40;
  config.ga.seed = 2004;
  config.migrate_elites = 3;
  return config;
}

/// Bit-for-bit scan equivalence: every per-window champion and count
/// must match between the mmap'd and the in-memory data path.
void gate_identical(const ga::WindowScanResult& mapped,
                    const ga::WindowScanResult& memory) {
  bool ok = mapped.best_fitness == memory.best_fitness &&
            mapped.best_snps == memory.best_snps &&
            mapped.evaluations == memory.evaluations &&
            mapped.windows.size() == memory.windows.size();
  for (std::size_t w = 0; ok && w < mapped.windows.size(); ++w) {
    ok = mapped.windows[w].best_fitness == memory.windows[w].best_fitness &&
         mapped.windows[w].best_snps == memory.windows[w].best_snps;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: mmap-store scan diverged from the in-memory "
                 "reference (best %.17g vs %.17g)\n",
                 mapped.best_fitness, memory.best_fitness);
    std::exit(1);
  }
  std::printf("equivalence: mmap'd scan == in-memory scan bit-for-bit "
              "(%zu windows, %llu evaluations)\n",
              mapped.windows.size(),
              static_cast<unsigned long long>(mapped.evaluations));
}

/// Both legs must pick the same windows — streaming admission is
/// provably the full ranking, so any difference is a bug, not noise.
void gate_same_selection(const std::vector<ga::WindowSpec>& sequential,
                         const std::vector<ga::WindowSpec>& pipelined) {
  auto begins = [](std::vector<ga::WindowSpec> windows) {
    std::sort(windows.begin(), windows.end(),
              [](const ga::WindowSpec& a, const ga::WindowSpec& b) {
                return a.begin < b.begin;
              });
    std::vector<std::uint32_t> out;
    out.reserve(windows.size());
    for (const auto& w : windows) out.push_back(w.begin);
    return out;
  };
  if (begins(sequential) != begins(pipelined)) {
    std::fprintf(stderr,
                 "FATAL: pipelined streaming admission selected different "
                 "windows than the full ranking\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  const std::string engine_name = args.get("engine", "sync");
  if (engine_name != "sync" && engine_name != "async") {
    throw ConfigError("--engine must be sync or async");
  }
  const auto concurrent_windows =
      static_cast<std::uint32_t>(args.get_int("concurrent-windows", 2));
  const auto prefilter_workers =
      static_cast<std::uint32_t>(args.get_int("prefilter-workers", 0));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 2));
  const std::uint32_t resolved_prefilter_workers =
      prefilter_workers > 0
          ? prefilter_workers
          : static_cast<std::uint32_t>(parallel::default_thread_count());

  std::printf("=== Genome-scale scan: packed store -> LD prefilter -> "
              "windowed GA, sequential vs pipelined ===\n\n");
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "ldga_bench_genome.pgs")
          .string();

  // --- Stage 1: stream the synthetic panel to disk, chunk by chunk.
  genomics::SyntheticStoreConfig data;
  data.cohort.snp_count = kWindowSnps;  // signal chunk = one window
  data.cohort.affected_count = 150;
  data.cohort.unaffected_count = 150;
  data.cohort.unknown_count = 0;
  data.cohort.active_snp_count = 3;
  data.total_snps = kPanelSnps;
  data.chunk_snps = 4096;
  Rng rng(20040426);

  Stopwatch build_watch;
  const genomics::SyntheticStoreResult written =
      genomics::write_synthetic_store(store_path, data, rng);
  const double build_ms = build_watch.elapsed_ms();
  const double store_mb =
      static_cast<double>(std::filesystem::file_size(store_path)) /
      (1024.0 * 1024.0);
  const double rss_after_build = proc_status_mb("VmRSS");
  std::printf("store: %u SNPs x %u individuals streamed to %.1f MiB in "
              "%.0f ms (chunk %u; RSS %.0f MiB)\n",
              written.snps_written,
              static_cast<std::uint32_t>(written.statuses.size()), store_mb,
              build_ms, data.chunk_snps, rss_after_build);

  // --- Stage 2: mmap it back (with the full payload-CRC pass).
  Stopwatch open_watch;
  const genomics::PackedGenotypeStore store =
      genomics::PackedGenotypeStore::open(store_path);
  const double open_ms = open_watch.elapsed_ms();
  std::printf("open: verified and mapped in %.1f ms\n", open_ms);

  // --- Stage 3: the two legs, interleaved. The sequential leg is the
  // PR 7 stage chain (score everything, rank, then scan serially); the
  // pipelined leg streams window scores into the top-K admission and
  // keeps up to --concurrent-windows GAs in flight while the sweep is
  // still running.
  const std::vector<ga::WindowSpec> all_windows =
      ga::plan_windows(store.snp_count(), kWindowSnps, kStrideSnps);

  analysis::GenomePipelineConfig sequential_config;
  sequential_config.prefilter.workers = prefilter_workers;
  sequential_config.keep_windows = kGaWindows;
  sequential_config.scan = scan_config();
  sequential_config.mode = analysis::PipelineMode::kSequential;

  analysis::GenomePipelineConfig pipelined_config = sequential_config;
  pipelined_config.mode = analysis::PipelineMode::kPipelined;
  pipelined_config.scan.engine = engine_name == "async"
                                     ? ga::ScanEngine::kAsync
                                     : ga::ScanEngine::kSync;
  pipelined_config.scan.concurrent_windows = concurrent_windows;

  analysis::GenomePipelineResult sequential;
  analysis::GenomePipelineResult pipelined;
  double sequential_ms = 0.0;
  double pipelined_ms = 0.0;
  double sequential_prefilter_ms = 0.0;
  double pipelined_prefilter_ms = 0.0;
  double sequential_scan_ms = 0.0;
  double pipelined_scan_tail_ms = 0.0;
  for (std::uint32_t rep = 0; rep < std::max(reps, 1u); ++rep) {
    analysis::GenomePipelineResult seq_rep = analysis::run_genome_pipeline(
        store, store.panel(), store.statuses(), all_windows,
        sequential_config);
    analysis::GenomePipelineResult pipe_rep = analysis::run_genome_pipeline(
        store, store.panel(), store.statuses(), all_windows,
        pipelined_config);
    std::printf("rep %u: sequential %.0f ms (prefilter %.0f + scan %.0f), "
                "pipelined %.0f ms (sweep %.0f, tail %.0f)\n",
                rep, seq_rep.total_seconds * 1000.0,
                seq_rep.prefilter_seconds * 1000.0,
                seq_rep.scan_tail_seconds * 1000.0,
                pipe_rep.total_seconds * 1000.0,
                pipe_rep.prefilter_seconds * 1000.0,
                pipe_rep.scan_tail_seconds * 1000.0);
    if (rep == 0 || seq_rep.total_seconds * 1000.0 < sequential_ms) {
      sequential_ms = seq_rep.total_seconds * 1000.0;
      sequential_prefilter_ms = seq_rep.prefilter_seconds * 1000.0;
      sequential_scan_ms = seq_rep.scan_tail_seconds * 1000.0;
    }
    if (rep == 0 || pipe_rep.total_seconds * 1000.0 < pipelined_ms) {
      pipelined_ms = pipe_rep.total_seconds * 1000.0;
      pipelined_prefilter_ms = pipe_rep.prefilter_seconds * 1000.0;
      pipelined_scan_tail_ms = pipe_rep.scan_tail_seconds * 1000.0;
    }
    if (rep == 0) {
      sequential = std::move(seq_rep);
      pipelined = std::move(pipe_rep);
    }
  }
  const double speedup = pipelined_ms > 0.0 ? sequential_ms / pipelined_ms : 0.0;
  const double rss_after_legs = proc_status_mb("VmRSS");

  std::uint64_t pairs = 0;
  for (const auto& score : sequential.scores) pairs += score.pairs;
  std::printf("prefilter: %zu windows, %llu pairs in %.0f ms "
              "(%.1f Mpairs/s on %u workers)\n",
              sequential.scores.size(),
              static_cast<unsigned long long>(pairs), sequential_prefilter_ms,
              static_cast<double>(pairs) / (sequential_prefilter_ms * 1000.0),
              resolved_prefilter_workers);

  bool signal_in_top = false;
  for (const auto& window : sequential.selected) {
    bool all_inside = !written.truth.snps.empty();
    for (const auto snp : written.truth.snps) {
      all_inside = all_inside && snp >= window.begin &&
                   snp < window.begin + window.count;
    }
    signal_in_top = signal_in_top || all_inside;
    std::printf("  selected window [%u, %u)\n", window.begin,
                window.begin + window.count);
  }
  std::printf("  planted signal window %s the selection\n",
              signal_in_top ? "survived" : "did not survive");

  // --- Gates. Selection must match between legs; the sequential scan
  // must match the in-memory data path bit-for-bit.
  gate_same_selection(sequential.selected, pipelined.selected);
  const genomics::PackedGenotypeMatrix in_memory =
      store.slice_loci(0, store.snp_count());
  const ga::WindowScanResult memory = ga::run_window_scan(
      in_memory, store.panel(), store.statuses(), sequential.selected,
      sequential_config.scan);
  gate_identical(sequential.scan, memory);

  const std::uint32_t hardware_threads =
      static_cast<std::uint32_t>(parallel::default_thread_count());
  std::printf("pipeline: sequential %.0f ms vs pipelined %.0f ms -> "
              "%.2fx (%s, %u concurrent windows)\n",
              sequential_ms, pipelined_ms, speedup, engine_name.c_str(),
              concurrent_windows);
  if (hardware_threads < 2) {
    std::printf("SKIP: single hardware thread — no overlap to measure, "
                "speedup ratio is informational only\n");
  }

  const double peak_mb = proc_status_mb("VmHWM");
  std::printf("memory: peak RSS %.0f MiB over a %.1f MiB store\n", peak_mb,
              store_mb);

  std::FILE* json = std::fopen("BENCH_genome_scan.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_genome_scan.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  ldga::bench::write_machine_context(json);
  std::fprintf(
      json,
      "  \"pipeline\": {\n"
      "    \"engine\": \"%s\",\n"
      "    \"concurrent_windows\": %u,\n"
      "    \"prefilter_workers\": %u,\n"
      "    \"reps\": %u\n"
      "  },\n",
      engine_name.c_str(), concurrent_windows, resolved_prefilter_workers,
      std::max(reps, 1u));
  std::fprintf(
      json,
      "  \"workload\": \"%u-SNP synthetic panel, %u individuals; "
      "window %u stride %u; GA over top %u windows\",\n"
      "  \"panel_snps\": %u,\n"
      "  \"individuals\": %u,\n"
      "  \"store_file_mb\": %.2f,\n"
      "  \"store_build_ms\": %.1f,\n"
      "  \"store_open_ms\": %.2f,\n"
      "  \"prefilter_windows\": %zu,\n"
      "  \"prefilter_workers\": %u,\n"
      "  \"prefilter_pairs\": %llu,\n"
      "  \"prefilter_ms\": %.1f,\n"
      "  \"prefilter_mpairs_per_s\": %.2f,\n"
      "  \"signal_window_selected\": %s,\n"
      "  \"ga_windows\": %u,\n"
      "  \"ga_scan_ms\": %.1f,\n"
      "  \"ga_evaluations\": %llu,\n"
      "  \"best_fitness\": %.6f,\n"
      "  \"sequential_total_ms\": %.1f,\n"
      "  \"pipelined_total_ms\": %.1f,\n"
      "  \"pipelined_prefilter_ms\": %.1f,\n"
      "  \"pipelined_scan_tail_ms\": %.1f,\n"
      "  \"pipelined_evaluations\": %llu,\n"
      "  \"pipelined_best_fitness\": %.6f,\n"
      "  \"pipelined_speedup\": %.3f,\n"
      "  \"selection_identical\": true,\n"
      "  \"mmap_scan_bit_identical\": true,\n"
      "  \"rss_after_build_mb\": %.1f,\n"
      "  \"rss_after_legs_mb\": %.1f,\n"
      "  \"peak_rss_mb\": %.1f\n"
      "}\n",
      kPanelSnps, static_cast<std::uint32_t>(written.statuses.size()),
      kWindowSnps, kStrideSnps, kGaWindows, kPanelSnps,
      static_cast<std::uint32_t>(written.statuses.size()), store_mb,
      build_ms, open_ms, sequential.scores.size(), resolved_prefilter_workers,
      static_cast<unsigned long long>(pairs), sequential_prefilter_ms,
      static_cast<double>(pairs) / (sequential_prefilter_ms * 1000.0),
      signal_in_top ? "true" : "false", kGaWindows, sequential_scan_ms,
      static_cast<unsigned long long>(sequential.scan.evaluations),
      sequential.scan.best_fitness, sequential_ms, pipelined_ms,
      pipelined_prefilter_ms, pipelined_scan_tail_ms,
      static_cast<unsigned long long>(pipelined.scan.evaluations),
      pipelined.scan.best_fitness, speedup, rss_after_build, rss_after_legs,
      peak_mb);
  std::fclose(json);
  std::printf("\nwrote BENCH_genome_scan.json\n");

  std::filesystem::remove(store_path);
  return 0;
} catch (const ldga::Error& error) {
  std::fprintf(stderr, "FATAL: %s\n", error.what());
  return 1;
}
