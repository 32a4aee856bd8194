// The three workloads and what they share.
//
// Every workload follows one shape: build its inputs from the seed
// (cached under Options::cache_dir when they are costly), reset the
// peak-RSS mark, run a warm-up job and then timed jobs until the time
// budget is spent, and finally check the outputs. Set-up (store open,
// evaluator and backend or lane-pool construction) is timed per job,
// apart from the job's wall time. Traced runs alternate untraced and
// traced jobs and record spans around every public call they make.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "ga/haplotype_individual.hpp"
#include "genomics/types.hpp"
#include "stats/evaluator.hpp"

namespace perfbench {

void run_paper_sync(const Options& options, Report& report, Trace* trace);
void run_islands_mc(const Options& options, Report& report, Trace* trace);
void run_genome_scan(const Options& options, Report& report, Trace* trace);

/// Best haplotype of one size found by exhaustive enumeration.
struct Optimum {
  std::uint32_t size = 0;
  double fitness = 0.0;
  std::vector<ldga::genomics::SnpIndex> snps;
};

/// analysis::enumerate_all over sizes [min_size, max_size], read from
/// `path` when a previous run of the same seed stored it there, and
/// stored there otherwise. Never part of a timed region.
std::vector<Optimum> cached_optimum(const std::string& path,
                                    const ldga::stats::HaplotypeEvaluator& evaluator,
                                    std::uint32_t min_size,
                                    std::uint32_t max_size,
                                    std::uint32_t workers);

/// A job's champion fitness per size in [min_size, max_size] as
/// counters "champion_size<k>_c<cohort>"; metrics.py compares them
/// with the report's "optimum_size<k>_c<cohort>" (optimum_gap).
void count_champions(Numbers& counters,
                     const std::vector<ldga::ga::HaplotypeIndividual>& best,
                     std::uint32_t min_size, std::uint32_t max_size,
                     std::uint32_t cohort);

/// One cohort's reference optimum per size (quality) and its planted
/// and champion SNP lists (snp_lists, for signal_recall).
void report_quality(Report& report, const std::vector<Optimum>& optimum,
                    const std::vector<ldga::genomics::SnpIndex>& planted,
                    const std::vector<ldga::genomics::SnpIndex>& champion,
                    std::uint32_t cohort);

}  // namespace perfbench
