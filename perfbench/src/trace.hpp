// In-memory trace spans, written out as Chrome trace-event JSON.
//
// The benchmark wraps each public library call it makes in a span
// (name, start, end, parent span, run id). Spans stay in memory until
// the run ends; write_chrome_json() then emits one complete ("X")
// event per span and one instant ("i") event per point event, which
// Perfetto or chrome://tracing open directly. perfbench/metrics.py
// reads the same file back to compute self times (a span's duration
// minus the part its child spans cover).
//
// A null Trace* means "untraced": ScopedSpan and the decorators check
// for it, so untraced jobs pay one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Trace {
 public:
  using SpanId = std::uint64_t;  ///< 0 = no span (the root's parent)

  Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span on the calling thread; close it with end().
  SpanId begin(const char* name, SpanId parent, std::uint32_t run);
  void end(SpanId id);

  /// A span whose interval was measured by the caller.
  SpanId record(const char* name, SpanId parent, std::uint32_t run,
                Clock::time_point start, Clock::time_point end);

  /// A point event (island telemetry); `args` is a JSON object body
  /// without braces, e.g. "\"island\": 2".
  void instant(const char* name, std::uint32_t run, Clock::time_point at,
               std::string args);

  /// Writes every span and instant event recorded so far.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    SpanId id = 0;
    SpanId parent = 0;
    std::uint32_t run = 0;
    std::uint32_t tid = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  struct Instant {
    const char* name = "";
    std::uint32_t run = 0;
    std::uint32_t tid = 0;
    std::int64_t at_ns = 0;
    std::string args;
  };

  std::int64_t since_origin(Clock::time_point t) const;
  std::uint32_t thread_index();  ///< requires mutex_ held

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< index = id - 1
  std::vector<Instant> instants_;
  std::unordered_map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span; a null trace makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, Trace::SpanId parent,
             std::uint32_t run)
      : trace_(trace),
        id_(trace != nullptr ? trace->begin(name, parent, run) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Trace::SpanId id() const { return id_; }

 private:
  Trace* trace_;
  Trace::SpanId id_;
};

}  // namespace perfbench
