// Reference optimum (cached exhaustive enumeration) and the quality
// numbers every GA workload reports next to its timings.
#include <cstdio>
#include <filesystem>
#include <string>

#include "analysis/enumeration.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

bool load_optimum(const std::string& path, std::uint32_t min_size,
                  std::uint32_t max_size, std::vector<Optimum>& out) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return false;
  out.clear();
  bool ok = true;
  for (std::uint32_t size = min_size; ok && size <= max_size; ++size) {
    Optimum optimum;
    ok = std::fscanf(in, "%u %lf", &optimum.size, &optimum.fitness) == 2 &&
         optimum.size == size;
    for (std::uint32_t k = 0; ok && k < size; ++k) {
      unsigned snp = 0;
      ok = std::fscanf(in, "%u", &snp) == 1;
      optimum.snps.push_back(snp);
    }
    out.push_back(std::move(optimum));
  }
  std::fclose(in);
  return ok;
}

void store_optimum(const std::string& path, const std::vector<Optimum>& all) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) return;  // the cache is an optimization only
  for (const Optimum& optimum : all) {
    std::fprintf(out, "%u %.17g", optimum.size, optimum.fitness);
    for (const auto snp : optimum.snps) std::fprintf(out, " %u", snp);
    std::fprintf(out, "\n");
  }
  if (std::fclose(out) == 0) std::filesystem::rename(tmp, path);
}

}  // namespace

void count_champions(Numbers& counters,
                     const std::vector<ldga::ga::HaplotypeIndividual>& best,
                     std::uint32_t min_size, std::uint32_t max_size,
                     std::uint32_t cohort) {
  for (const auto& champion : best) {
    if (champion.size() >= min_size && champion.size() <= max_size) {
      counters.set("champion_size" + std::to_string(champion.size()) + "_c" +
                       std::to_string(cohort),
                   champion.fitness());
    }
  }
}

std::vector<Optimum> cached_optimum(
    const std::string& path, const ldga::stats::HaplotypeEvaluator& evaluator,
    std::uint32_t min_size, std::uint32_t max_size, std::uint32_t workers) {
  std::vector<Optimum> all;
  if (load_optimum(path, min_size, max_size, all)) return all;
  all.clear();
  ldga::analysis::EnumerationConfig config;
  config.top_n = 1;
  config.workers = workers;
  for (std::uint32_t size = min_size; size <= max_size; ++size) {
    const ldga::analysis::EnumerationResult result =
        ldga::analysis::enumerate_all(evaluator, size, config);
    all.push_back(
        {size, result.best.front().fitness, result.best.front().snps});
  }
  store_optimum(path, all);
  return all;
}

void report_quality(Report& report, const std::vector<Optimum>& optimum,
                    const std::vector<ldga::genomics::SnpIndex>& planted,
                    const std::vector<ldga::genomics::SnpIndex>& champion,
                    std::uint32_t cohort) {
  const std::string suffix = "_c" + std::to_string(cohort);
  for (const Optimum& best : optimum) {
    report.quality.set("optimum_size" + std::to_string(best.size) + suffix,
                       best.fitness);
  }
  report.snp_lists.emplace_back(
      "planted" + suffix,
      std::vector<std::uint32_t>(planted.begin(), planted.end()));
  report.snp_lists.emplace_back(
      "champion" + suffix,
      std::vector<std::uint32_t>(champion.begin(), champion.end()));
}

}  // namespace perfbench
