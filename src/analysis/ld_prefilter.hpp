// Pairwise-LD prefilter over a GenotypeStore.
//
// Which windows of a genome-scale panel deserve a GA run? Regions of
// elevated pairwise disequilibrium — haplotype-block structure — are
// where multi-SNP association signals can live, so the prefilter sweeps
// every intra-window SNP pair, summarizes each window's LD, and ranks
// the windows. The GA driver (ga/window_scan.hpp) then spends its
// budget on the top of the ranking.
//
// The pair statistic is composite (genotype-dosage) LD, computed
// entirely from the 2-bit plane words with popcount kernels of
// util/simd.hpp — no EM, no phase: over individuals typed at both
// loci, the dosage g = lo + 2·hi ∈ {0,1,2} gives
//
//   Σ g_a       =   cnt(V∧lo_a) + 2·cnt(V∧hi_a)
//   Σ g_a²      =   cnt(V∧lo_a) + 4·cnt(V∧hi_a)
//   Σ g_a·g_b   =   cnt(V∧lo_a∧lo_b) + 2·cnt(V∧lo_a∧hi_b)
//                 + 2·cnt(V∧hi_a∧lo_b) + 4·cnt(V∧hi_a∧hi_b)
//
// (V = jointly-valid mask), from which r² is the squared dosage
// correlation and D = cov/2 with Lewontin's normalization for D'.
// Composite r² equals the EM-based haplotypic r² under random mating
// and approximates it otherwise — exactly the right fidelity for a
// prefilter whose output is a ranking, not a statistic.
//
// The sweep masks each SNP's planes by its validity once (a missing
// call becomes (0, 0), so the V of a joint count folds into the
// operands) and copies the window word-major, [word][snp], so that
// util::SimdKernels::pair_block_counts counts one SNP against the
// whole rest of its row in one fused pass — one pair per vector lane.
// When a row's SNP and all later SNPs of the window are fully typed,
// n and every per-SNP term are constants hoisted out of the pair loop
// and a pair costs its four cross counts and three divisions; every
// other row takes the general nine-count path, about 4x slower per
// pair. Both reproduce composite_pair_ld bit for bit. Windows are the unit of parallelism: each is summed by
// one thread in fixed pair order, so scores do not depend on the
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "ga/window_scan.hpp"
#include "genomics/genotype_store.hpp"
#include "genomics/ld.hpp"
#include "genomics/types.hpp"

namespace ldga::analysis {

struct LdPrefilterConfig {
  /// A pair with r² at or above this counts as a "strong" pair in
  /// WindowScore::strong_pairs (block-structure evidence).
  double strong_r2 = 0.2;
  /// Threads that score windows, the calling thread included: 1 runs
  /// inline on the caller, 0 means hardware concurrency. Each window is
  /// summed by one thread in fixed pair order and emitted in window
  /// order, so scores are bit-for-bit identical at any worker count.
  std::uint32_t workers = 1;

  void validate() const;
};

/// One window's LD summary. `score` is what rankings sort by: the mean
/// pairwise r², i.e. LD mass normalized by window area so partial
/// windows compete fairly with full ones.
struct WindowScore {
  ga::WindowSpec window;
  double mean_r2 = 0.0;
  double max_r2 = 0.0;
  double mean_abs_d_prime = 0.0;
  std::uint64_t strong_pairs = 0;
  std::uint64_t pairs = 0;
  double score = 0.0;
};

/// Composite LD of one pair, straight from the store's plane words,
/// with nine masked popcounts. Degenerate pairs (a monomorphic locus,
/// or < 2 jointly-typed individuals) score zero. The per-pair
/// reference: tests and spot checks hold the sweep below to it bit for
/// bit; the sweep itself never calls it.
genomics::PairLd composite_pair_ld(const genomics::GenotypeStore& store,
                                   genomics::SnpIndex a,
                                   genomics::SnpIndex b);

/// Every intra-window pair of every window, one WindowScore per
/// WindowSpec (same order).
std::vector<WindowScore> score_windows(const genomics::GenotypeStore& store,
                                       std::span<const ga::WindowSpec> windows,
                                       const LdPrefilterConfig& config = {});

/// The same sweep, emitting each window's score to `sink` the moment
/// it is final (window order, on the calling thread; one worker pool
/// across the whole sweep).
/// This is the producing end of the pipelined scan: the sink feeds a
/// StreamingTopK while the GA stage is already consuming admissions,
/// so prefilter and GA wall-clock overlap. Scores are bit-identical to
/// score_windows at any worker count.
void score_windows_streaming(const genomics::GenotypeStore& store,
                             std::span<const ga::WindowSpec> windows,
                             const LdPrefilterConfig& config,
                             const std::function<void(const WindowScore&)>& sink);

/// The `keep` highest-scoring windows, re-sorted into genomic order so
/// the result feeds run_window_scan's adjacency-based elite migration
/// directly. Ties break toward the earlier window (deterministic).
std::vector<ga::WindowSpec> top_windows(std::span<const WindowScore> scores,
                                        std::uint32_t keep);

/// Streaming admission of the prefilter ranking — the piece that lets
/// the pipelined genome scan overlap window scoring with the GA stage
/// instead of waiting for the full sweep before the first GA starts.
///
/// Scores are offered one window at a time, in any order. A window is
/// *admitted* — released downstream — the moment the cutoff is
/// provable: window scores are bounded above by `max_score` (mean r²
/// <= 1), so once fewer than `keep` windows could still rank above it
/// (scored rivals that already do, plus every still-unscored window
/// assumed to score the ceiling with the most favorable tie-break), no
/// future observation can displace it. Dually, a window with `keep`
/// scored rivals above it is rejected outright. The admitted set
/// therefore always equals top_windows(all scores, keep) exactly —
/// streaming changes *when* windows are released, never *which*
/// (tests/test_ld_prefilter.cpp holds this across admission orders).
///
/// The ranking lives in an ordered set of at most `keep` entries — the
/// windows still in contention — so an offer costs O(log keep), and
/// the rival count of a window is its rank there.
///
/// The honest corollary: against a ceiling of 1.0 every unscored
/// window is a potential rival, so no window is provably in before the
/// last `keep` offers; admissions arrive in the sweep's tail. The
/// pipeline's win is the overlap of those last GAs with the end of the
/// sweep, plus early *rejections* that bound the set to `keep`.
class StreamingTopK {
 public:
  /// `total` windows will be offered; the best `keep` survive.
  StreamingTopK(std::uint32_t total, std::uint32_t keep,
                double max_score = 1.0);

  /// Records one scored window and returns every window this
  /// observation newly proved into the top `keep` (possibly including
  /// `score` itself, possibly windows offered earlier), in genomic
  /// order. Each window is returned at most once.
  std::vector<WindowScore> offer(const WindowScore& score);

  std::uint32_t offered() const { return offered_; }
  std::uint32_t admitted() const { return admitted_; }
  /// True once all `total` windows were offered — every admission
  /// decision is then final and offer() may not be called again.
  bool complete() const { return offered_ == total_; }

 private:
  /// The top_windows order: score descending, then begin ascending.
  struct RanksAbove {
    bool operator()(const WindowScore& x, const WindowScore& y) const;
  };

  std::uint32_t total_;
  std::uint32_t keep_;
  double max_score_;
  std::uint32_t offered_ = 0;
  std::uint32_t admitted_ = 0;
  /// Offered windows neither admitted nor provably rejected yet, best
  /// first. With the admitted ones they are the best `keep` offered so
  /// far, and every admitted window ranks above every contender.
  std::multiset<WindowScore, RanksAbove> contenders_;
};

}  // namespace ldga::analysis
