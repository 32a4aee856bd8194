#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Trace::Trace() : origin_(Clock::now()) {}

std::int64_t Trace::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint32_t Trace::thread_index() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

Trace::SpanId Trace::begin(const char* name, SpanId parent,
                           std::uint32_t run) {
  const std::int64_t start = since_origin(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.run = run;
  span.tid = thread_index();
  span.start_ns = start;
  spans_.push_back(span);
  return span.id;
}

void Trace::end(SpanId id) {
  const std::int64_t stop = since_origin(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end_ns = stop;
}

Trace::SpanId Trace::record(const char* name, SpanId parent,
                            std::uint32_t run, Clock::time_point start,
                            Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.run = run;
  span.tid = thread_index();
  span.start_ns = since_origin(start);
  span.end_ns = since_origin(end);
  spans_.push_back(span);
  return span.id;
}

void Trace::instant(const char* name, std::uint32_t run, Clock::time_point at,
                    std::string args) {
  const std::lock_guard<std::mutex> lock(mutex_);
  instants_.push_back(
      {name, run, thread_index(), since_origin(at), std::move(args)});
}

void Trace::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_ns < span.start_ns) continue;  // never closed
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"run\": %u}}",
                 first ? "" : ",\n", span.name, span.tid,
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.run);
    first = false;
  }
  for (const Instant& event : instants_) {
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"args\": "
                 "{\"run\": %u%s%s}}",
                 first ? "" : ",\n", event.name, event.tid,
                 static_cast<double>(event.at_ns) / 1e3, event.run,
                 event.args.empty() ? "" : ", ", event.args.c_str());
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
