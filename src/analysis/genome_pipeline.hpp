// The genome scan as one driver: prefilter → selection → windowed GA.
//
// Before this layer, a genome-scale run was a serial chain the caller
// assembled by hand: score every window (ld_prefilter.hpp), rank and
// keep the best (top_windows), then hand the survivors to
// run_window_scan — each stage waiting for the previous one to finish
// completely. On an mmap'd panel that wastes the natural overlap: the
// LD sweep is popcount-bound and pages the panel in window by window,
// while the GA stage is compute-bound on a handful of *selected*
// windows. Nothing about window k's GA needs window k+500's LD score.
//
// run_genome_pipeline offers both compositions over one result shape:
//
//   * kSequential — the reference chain, stage by stage. Its GA leg is
//     run_window_scan's sequential mode, so the whole leg is bit-exact
//     reproducible and serves as the correctness baseline the
//     pipelined leg is validated against (same selected windows, same
//     champions — tests/test_genome_pipeline.cpp).
//   * kPipelined — the caller's thread sweeps LD scores window by
//     window (score_windows_streaming, one worker pool for the whole
//     sweep) and feeds them to a StreamingTopK; each provable
//     admission is enqueued immediately on a WindowScanScheduler whose
//     workers are already running GAs while the sweep continues. The
//     admitted set equals the sequential leg's top_windows output by
//     construction; only execution order differs.
//
// The timing split in the result makes the overlap measurable:
// `prefilter_seconds` covers the scoring sweep (in the pipelined leg,
// GA work is concurrently in flight during it), `scan_tail_seconds`
// is what remained after the sweep — the pipeline's figure of merit is
// total_seconds shrinking toward max(stage) as stages overlap, and
// bench_genome_scan gates on exactly that ratio.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/ld_prefilter.hpp"
#include "ga/window_scan.hpp"
#include "genomics/genotype_store.hpp"
#include "genomics/snp_panel.hpp"
#include "genomics/types.hpp"

namespace ldga::analysis {

enum class PipelineMode : std::uint8_t {
  kSequential,  ///< stage-by-stage reference chain
  kPipelined,   ///< prefilter overlapped with the GA stage
};

struct GenomePipelineConfig {
  /// LD sweep knobs; `prefilter.workers` is the number of threads
  /// scoring windows, the caller included (the --prefilter-workers of
  /// the CLI tools).
  LdPrefilterConfig prefilter;
  /// Windowed GA knobs; `scan.engine` / `scan.concurrent_windows`
  /// govern the GA stage in both modes.
  ga::WindowScanConfig scan;
  /// Windows that survive the ranking and get a GA run.
  std::uint32_t keep_windows = 2;
  PipelineMode mode = PipelineMode::kSequential;

  void validate() const;
};

struct GenomePipelineResult {
  /// Every planned window's LD summary, in plan order.
  std::vector<WindowScore> scores;
  /// The windows that got a GA, in genomic order (identical between
  /// modes: streaming admission provably equals the full ranking).
  std::vector<ga::WindowSpec> selected;
  /// GA outcomes; `scan.windows` is in execution order — genomic for
  /// the sequential mode, admission order for the pipelined one.
  ga::WindowScanResult scan;
  /// Wall clock of the LD scoring sweep. In the pipelined mode GA work
  /// runs concurrently inside this span.
  double prefilter_seconds = 0.0;
  /// Wall clock from the end of the sweep to the last GA finishing —
  /// the un-overlapped GA remainder (sequential mode: the whole GA
  /// stage).
  double scan_tail_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Runs the full scan over `windows` (typically plan_windows over the
/// panel). Requirements are run_window_scan's: panel/statuses must
/// match the store, every window must exceed the GA's min_size.
GenomePipelineResult run_genome_pipeline(
    const genomics::GenotypeStore& store, const genomics::SnpPanel& panel,
    std::span<const genomics::Status> statuses,
    std::span<const ga::WindowSpec> windows,
    const GenomePipelineConfig& config);

}  // namespace ldga::analysis
