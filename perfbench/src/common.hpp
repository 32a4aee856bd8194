// Shared plumbing of the benchmark runner: options, the raw report the
// runner hands to perfbench/run.py, and small measurement helpers.
//
// The runner measures; it does not summarize. Each job contributes one
// record of raw numbers (set-up seconds, wall seconds, counters read
// from the library's result structs), and metrics.py turns the records
// and the trace file into the reported medians, percentiles and
// ratios.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< per-seed inputs and references, reused
  std::string out_dir;    ///< raw report and trace file of this run
  std::uint32_t cores = 1;  ///< CPUs this process may run on
};

/// Ordered name → number map, serialized as a JSON object.
class Numbers {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;  ///< 0 when absent
  std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// One timed job: its set-up, its wall time and what it counted.
struct Job {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  Numbers counters;
};

struct Gate {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Everything one run measured, written as JSON for run.py.
struct Report {
  Options options;
  Numbers threads;  ///< compute threads by role
  std::vector<Job> jobs;
  /// Set-up times of standalone set-ups (built, then torn down) made
  /// before the jobs; with the jobs' own set-ups they give setup_s.
  std::vector<double> setup_samples;
  std::vector<Gate> gates;
  Numbers quality;  ///< reference optimum, champions, planted signal
  /// Named SNP index lists (planted signal, champion haplotype).
  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> snp_lists;
  Numbers layer;    ///< one-off per-layer measurements of the run
  double peak_rss_mb = 0.0;
  std::string peak_rss_source;
  std::string trace_file;

  void gate(std::string name, bool passed, std::string detail = {});
  void write(const std::string& path) const;
};

/// Seconds between two clock readings.
double seconds(Clock::time_point from, Clock::time_point to);

/// Independent 64-bit stream derived from (seed, salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Resets the kernel's peak-RSS mark of this process (VmHWM) so the
/// peak read later covers only what ran after the reset. Returns false
/// where the kernel refuses.
bool reset_peak_rss();
/// VmHWM of this process, MiB.
double peak_rss_mb();

/// Returns freed heap memory to the kernel and resets the peak-RSS
/// mark, so the VmHWM read after a job is that job's own peak rather
/// than whatever earlier jobs left in the allocator.
void begin_job_peak_rss();

/// Throughput of util::simd().popcount_words over a cache-resident
/// array of `words` words, in words per nanosecond (median of several
/// timed sweeps). This is the kernel ceiling the prefilter's computed
/// words are compared against.
double popcount_words_per_ns(std::size_t words);

/// Standalone set-ups timed before the jobs, so setup_s rests on
/// enough samples even when only a few jobs fit into a run.
constexpr int kSetupReps = 10;

/// Times `set_up` (which returns the seconds of one complete set-up)
/// kSetupReps times, then runs `job` until at least `options.seconds`
/// of job wall time were measured and at least `min_jobs` ran. In
/// traced runs the jobs alternate untraced/traced so both sides see the
/// same host drift. The first job is a warm-up: it runs and is gated
/// like the others but stays out of the medians (counter "warmup" = 1).
template <typename SetUp, typename RunJob>
void run_jobs(const Options& options, std::uint32_t min_jobs, Report& report,
              SetUp&& set_up, RunJob&& job) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    report.setup_samples.push_back(set_up());
  }
  const auto run_one = [&](bool traced, std::uint32_t index) {
    begin_job_peak_rss();
    Job one = job(traced, index);
    one.counters.set("peak_rss_mb", peak_rss_mb());
    return one;
  };
  Job warmup = run_one(false, 0u);
  warmup.counters.set("warmup", 1.0);
  report.jobs.push_back(std::move(warmup));
  double measured = 0.0;
  std::uint32_t index = 1;
  std::uint32_t timed = 0;
  const std::uint32_t needed = options.trace ? 2 * min_jobs : min_jobs;
  while (measured < options.seconds || timed < needed) {
    const bool traced = options.trace && (index % 2 == 0);
    Job one = run_one(traced, index);
    measured += one.wall_s;
    report.jobs.push_back(std::move(one));
    ++index;
    ++timed;
  }
}

}  // namespace perfbench
