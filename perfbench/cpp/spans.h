// The benchmark's own spans, recorded around each public call it makes
// into the program (RunOfflineTool, Initialize, Start, Connect, Infer,
// Submit -> future, the reference Executor::Run, the reply check).
//
// Spans live in memory and are written once, when the run ends, as a
// Chrome trace-event file (open it in Perfetto). Spans of one request
// share a trace id; `parent` links a span to the span that caused it.
// A disabled log records nothing, so an untraced run pays one branch
// per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mvtee::perfbench {

struct Span {
  const char* name;
  uint64_t trace_id;
  uint64_t id;
  uint64_t parent;  // 0 = root
  int64_t start_us;
  int64_t end_us;
  uint32_t thread;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Record(const Span& span);

  // Writes {"traceEvents": [...]}; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records [construction, End()/destruction) as one span when the log
// is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t trace_id = 0,
             uint64_t parent = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void End();

 private:
  SpanLog& log_;
  Span span_;
  bool open_;
};

}  // namespace mvtee::perfbench
