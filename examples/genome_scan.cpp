// Genome-scale scan: the full data path beyond the paper's 249-SNP
// "larger files" experiments. A 20,000-SNP synthetic panel is streamed
// into an on-disk packed genotype store chunk by chunk, memory-mapped
// back, swept by the composite-LD prefilter, and the top-ranked
// windows are searched by the windowed GA driver — the multipopulation
// engine runs inside each window against a column slice of the store,
// migrating elite haplotypes into overlapping windows' warm starts.
//
// Flags (defaults in brackets):
//   --engine sync|async       per-window engine [sync]: async runs each
//                             window's size classes as steady-state
//                             islands over a shared evaluation stream
//   --concurrent-windows N    window GAs in flight at once [1]; with
//                             sync + 1 the scan is the sequential
//                             bit-exact reference, anything else runs
//                             the pipelined scheduler and overlaps the
//                             prefilter with the GA stage
//   --prefilter-workers N     threads scoring LD windows, the calling
//                             thread included [1; 0 = hardware]
//   --keep N                  windows that get a GA run [4]
//   --snps N                  synthetic panel width [20000]
//   --seed S                  scan seed [3]
//   --store PATH              where the synthetic panel is written
//                             [<temp dir>/ldga_genome_scan_<pid>.pgs]
//
// Any other flag is an error: the scan stops before writing the store.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/genome_pipeline.hpp"
#include "genomics/packed_store.hpp"
#include "genomics/synthetic.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace ldga;
  try {
    const CliArgs args(argc, argv);
    args.reject_unknown({"engine", "concurrent-windows", "prefilter-workers",
                         "keep", "snps", "seed", "store"});
    const std::string engine_name = args.get("engine", "sync");
    if (engine_name != "sync" && engine_name != "async") {
      throw ConfigError("--engine must be sync|async, got '" + engine_name +
                        "'");
    }

    // Per-process default, so concurrent runs never share a file.
    const std::string store_path = args.get(
        "store", (std::filesystem::temp_directory_path() /
                  ("ldga_genome_scan_" + std::to_string(::getpid()) + ".pgs"))
                     .string());

    // --- 1. Stream a synthetic panel to disk. The first 64 markers are
    // the signal chunk carrying a planted 3-SNP risk haplotype; the rest
    // are independent null LD blocks, written chunk by chunk so memory
    // stays O(chunk) however wide the panel.
    genomics::SyntheticStoreConfig data;
    data.cohort.snp_count = 64;
    data.cohort.affected_count = 100;
    data.cohort.unaffected_count = 100;
    data.cohort.unknown_count = 0;
    data.cohort.active_snp_count = 3;
    data.total_snps = static_cast<std::uint32_t>(args.get_int("snps", 20'000));
    data.chunk_snps = 2048;
    Rng rng(11);

    Stopwatch build_watch;
    const auto written =
        genomics::write_synthetic_store(store_path, data, rng);
    std::printf("store: %u SNPs x %zu individuals -> %s (%.0f ms)\n",
                written.snps_written, written.statuses.size(),
                store_path.c_str(), build_watch.elapsed_ms());
    std::printf("planted SNPs (1-based):");
    for (const auto snp : written.truth.snps) std::printf(" %u", snp + 1);
    std::printf("\n\n");

    // --- 2. Map it back. The header seal and payload CRC are verified;
    // plane words are paged in on demand from here on.
    const auto store = genomics::PackedGenotypeStore::open(store_path);

    // --- 3+4. Prefilter + windowed GA through the pipeline driver.
    // Sequential when nothing is concurrent (the reference chain);
    // otherwise the LD sweep feeds streaming admissions to GA workers
    // already in flight.
    analysis::GenomePipelineConfig pipeline;
    pipeline.prefilter.workers =
        static_cast<std::uint32_t>(args.get_int("prefilter-workers", 1));
    pipeline.keep_windows =
        static_cast<std::uint32_t>(args.get_int("keep", 4));
    pipeline.scan.engine = engine_name == "async" ? ga::ScanEngine::kAsync
                                                  : ga::ScanEngine::kSync;
    pipeline.scan.concurrent_windows =
        static_cast<std::uint32_t>(args.get_int("concurrent-windows", 1));
    pipeline.mode = pipeline.scan.engine == ga::ScanEngine::kSync &&
                            pipeline.scan.concurrent_windows == 1
                        ? analysis::PipelineMode::kSequential
                        : analysis::PipelineMode::kPipelined;
    pipeline.scan.ga.min_size = 2;
    pipeline.scan.ga.max_size = 4;
    pipeline.scan.ga.population_size = 60;
    pipeline.scan.ga.min_subpopulation = 10;
    pipeline.scan.ga.stagnation_generations = 30;
    pipeline.scan.ga.max_generations = 120;
    pipeline.scan.ga.seed =
        static_cast<std::uint64_t>(args.get_int("seed", 3));

    const std::vector<ga::WindowSpec> tiling =
        ga::plan_windows(store.snp_count(), 64, 48);
    const analysis::GenomePipelineResult result = analysis::run_genome_pipeline(
        store, store.panel(), store.statuses(), tiling, pipeline);

    std::printf("prefilter: %zu windows scored in %.0f ms%s; GA budget "
                "went to:\n",
                result.scores.size(), result.prefilter_seconds * 1e3,
                pipeline.mode == analysis::PipelineMode::kPipelined
                    ? " (GA windows in flight meanwhile)"
                    : "");
    for (const auto& window : result.selected) {
      std::printf("  [%6u, %6u)\n", window.begin,
                  window.begin + window.count);
    }
    std::printf("\n");

    std::printf("scan: %llu evaluations, %.1f s total (%.1f s after the "
                "sweep)\n",
                static_cast<unsigned long long>(result.scan.evaluations),
                result.total_seconds, result.scan_tail_seconds);
    std::printf("%-18s %-26s %s\n", "window", "best haplotype (1-based)",
                "fitness");
    for (const auto& window : result.scan.windows) {
      std::string snps;
      for (const auto snp : window.best_snps) {
        if (!snps.empty()) snps += ' ';
        snps += std::to_string(snp + 1);
      }
      std::printf("[%6u, %6u)   %-26s %.3f%s\n", window.window.begin,
                  window.window.begin + window.window.count, snps.c_str(),
                  window.best_fitness,
                  window.migrants_in > 0 ? "  (warm-started)" : "");
    }

    std::printf("\nscan champion (1-based):");
    for (const auto snp : result.scan.best_snps) std::printf(" %u", snp + 1);
    std::printf("  fitness %.3f\n", result.scan.best_fitness);

    std::filesystem::remove(store_path);
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
