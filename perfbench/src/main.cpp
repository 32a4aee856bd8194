// perfbench_runner: runs one benchmark workload and writes its raw
// measurements (and, when traced, a Chrome trace-event file) for
// perfbench/run.py to summarize.
//
//   perfbench_runner --workload paper_sync|islands_mc|genome_scan
//                    --seed N --seconds S --trace 0|1
//                    --cache DIR --out DIR
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

std::uint32_t available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::uint32_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  options.cores = available_cores();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--cache") {
      options.cache_dir = value;
    } else if (key == "--out") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (options.cache_dir.empty() || options.out_dir.empty()) {
    throw std::invalid_argument("--cache and --out are required");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) try {
  const perfbench::Options options = parse(argc, argv);
  std::filesystem::create_directories(options.cache_dir);
  std::filesystem::create_directories(options.out_dir);

  perfbench::Report report;
  report.options = options;
  std::unique_ptr<perfbench::Trace> trace;
  if (options.trace) trace = std::make_unique<perfbench::Trace>();

  if (options.workload == "paper_sync") {
    perfbench::run_paper_sync(options, report, trace.get());
  } else if (options.workload == "islands_mc") {
    perfbench::run_islands_mc(options, report, trace.get());
  } else if (options.workload == "genome_scan") {
    perfbench::run_genome_scan(options, report, trace.get());
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }

  const std::string stem = options.out_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  if (trace) {
    report.trace_file = stem + ".trace.json";
    trace->write_chrome_json(report.trace_file);
  }
  report.write(stem + ".raw.json");
  std::printf("%s\n", (stem + ".raw.json").c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "perfbench_runner: %s\n", error.what());
  return 1;
}
