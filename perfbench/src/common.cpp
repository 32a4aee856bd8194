#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench_context.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Numbers::set(const std::string& name, double value) {
  for (auto& [key, existing] : values_) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Numbers::get(const std::string& name) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return value;
  }
  return 0.0;
}

std::string Numbers::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(values_[i].first) + ": " + json_number(values_[i].second);
  }
  return out + "}";
}

void Report::gate(std::string name, bool passed, std::string detail) {
  gates.push_back({std::move(name), passed, std::move(detail)});
}

void Report::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const ldga::util::SimdLevel detected = ldga::util::simd_detected_level();
  const ldga::util::SimdLevel active = ldga::util::simd_level();
  std::fprintf(out, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               json_string(options.workload).c_str(),
               static_cast<unsigned long long>(options.seed));
  std::fprintf(out, "  \"trace\": %s,\n  \"seconds\": %s,\n",
               options.trace ? "true" : "false",
               json_number(options.seconds).c_str());
  std::fprintf(out,
               "  \"machine\": {\"cpu\": %s, \"cores\": %u, "
               "\"hardware_threads\": %u, \"simd_detected\": %s, "
               "\"simd_active\": %s, \"compiler\": %s},\n",
               json_string(ldga::bench::cpu_model()).c_str(), options.cores,
               std::thread::hardware_concurrency(),
               json_string(ldga::util::simd_level_name(detected)).c_str(),
               json_string(ldga::util::simd_level_name(active)).c_str(),
               json_string(__VERSION__).c_str());
  std::fprintf(out, "  \"threads\": %s,\n", threads.json().c_str());
  std::fprintf(out, "  \"peak_rss_mb\": %s,\n  \"peak_rss_source\": %s,\n",
               json_number(peak_rss_mb).c_str(),
               json_string(peak_rss_source).c_str());
  std::fprintf(out, "  \"jobs\": [\n");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    std::fprintf(out,
                 "    {\"traced\": %s, \"setup_s\": %s, \"wall_s\": %s, "
                 "\"counters\": %s}%s\n",
                 job.traced ? "true" : "false",
                 json_number(job.setup_s).c_str(),
                 json_number(job.wall_s).c_str(),
                 job.counters.json().c_str(),
                 i + 1 < jobs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"setup_samples\": [");
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    std::fprintf(out, "%s%s", i > 0 ? ", " : "",
                 json_number(setup_samples[i]).c_str());
  }
  std::fprintf(out, "],\n  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(out, "    {\"name\": %s, \"passed\": %s, \"detail\": %s}%s\n",
                 json_string(gates[i].name).c_str(),
                 gates[i].passed ? "true" : "false",
                 json_string(gates[i].detail).c_str(),
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"quality\": %s,\n  \"layer\": %s,\n",
               quality.json().c_str(), layer.json().c_str());
  std::fprintf(out, "  \"snp_lists\": {");
  for (std::size_t i = 0; i < snp_lists.size(); ++i) {
    std::fprintf(out, "%s%s: [", i > 0 ? ", " : "",
                 json_string(snp_lists[i].first).c_str());
    const auto& list = snp_lists[i].second;
    for (std::size_t k = 0; k < list.size(); ++k) {
      std::fprintf(out, "%s%u", k > 0 ? ", " : "", list[k]);
    }
    std::fprintf(out, "]");
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"trace_file\": %s\n}\n",
               json_string(trace_file).c_str());
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  ldga::Rng rng(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return rng();
}

bool reset_peak_rss() {
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr) return false;
  const bool wrote = std::fputs("5", refs) >= 0;
  return std::fclose(refs) == 0 && wrote;
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;  // kB → MiB
      break;
    }
  }
  std::fclose(status);
  return mb;
}

void begin_job_peak_rss() {
  malloc_trim(0);
  reset_peak_rss();
}

double popcount_words_per_ns(std::size_t words) {
  std::vector<std::uint64_t> data(words);
  ldga::Rng rng(7);
  for (auto& word : data) word = rng();
  const ldga::util::SimdKernels& kernels = ldga::util::simd();
  // Enough sweeps per sample that one sample lasts ~1 ms.
  const std::size_t sweeps = std::max<std::size_t>(1, 4'000'000 / words);
  std::vector<double> samples;
  volatile std::uint64_t sink = 0;
  for (int sample = 0; sample < 15; ++sample) {
    const Clock::time_point start = Clock::now();
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < sweeps; ++s) {
      total += kernels.popcount_words(data.data(), words);
      data[s % words] ^= total;  // a fresh input each sweep
    }
    const double ns = seconds(start, Clock::now()) * 1e9;
    sink = sink + total;
    samples.push_back(static_cast<double>(sweeps * words) / ns);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace perfbench
