#include "cpp/spans.h"

#include <cstdio>

#include "obs/json.h"
#include "util/clock.h"

namespace mvtee::perfbench {
namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  obs::JsonValue::Array events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.reserve(spans_.size());
    for (const Span& s : spans_) {
      events.push_back(obs::JsonValue::Object{
          {"name", s.name},
          {"ph", "X"},
          {"ts", s.start_us},
          {"dur", s.end_us - s.start_us},
          {"pid", 1},
          {"tid", static_cast<int64_t>(s.thread)},
          {"args", obs::JsonValue::Object{{"trace_id", s.trace_id},
                                          {"span_id", s.id},
                                          {"parent", s.parent}}}});
    }
  }
  const std::string text =
      obs::JsonValue(obs::JsonValue::Object{{"traceEvents", std::move(events)}})
          .Dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, uint64_t trace_id,
                       uint64_t parent)
    : log_(log), open_(log.enabled()) {
  span_ = Span{name, trace_id, 0, parent, 0, 0, 0};
  if (!open_) return;
  span_.id = log.NextId();
  span_.thread = ThreadIndex();
  span_.start_us = util::NowMicros();
}

void ScopedSpan::End() {
  if (!open_) return;
  open_ = false;
  span_.end_us = util::NowMicros();
  log_.Record(span_);
}

}  // namespace mvtee::perfbench
