#include "obs/flight_recorder.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace mvtee::obs {

namespace {
std::atomic<uint64_t> g_bundle_seq{0};
}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Note(CheckpointEvidence ev) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[next_ % capacity_] = std::move(ev);
  }
  ++next_;
}

std::vector<CheckpointEvidence> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CheckpointEvidence> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

uint64_t FlightRecorder::total_noted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

namespace {

JsonValue EvidenceToJson(const CheckpointEvidence& ev) {
  JsonValue::Object fields;
  fields.emplace_back("trace_id", std::to_string(ev.trace_id));
  fields.emplace_back("batch", ev.batch);
  fields.emplace_back("stage", static_cast<int64_t>(ev.stage));
  fields.emplace_back("verdict", ev.verdict);
  fields.emplace_back("v_decide_us", ev.v_decide_us);
  JsonValue::Array variants;
  for (const VariantEvidence& v : ev.variants) {
    JsonValue::Object vf;
    vf.emplace_back("variant_id", v.variant_id);
    vf.emplace_back("ok", v.ok);
    vf.emplace_back("digest", v.digest);
    vf.emplace_back("nonfinite", v.nonfinite);
    vf.emplace_back("vtime_us", v.vtime_us);
    vf.emplace_back("dissent", v.dissent);
    variants.push_back(JsonValue(std::move(vf)));
  }
  fields.emplace_back("variants", JsonValue(std::move(variants)));
  return JsonValue(std::move(fields));
}

}  // namespace

util::Result<std::string> FlightRecorder::DumpBundle(
    const std::string& trigger, uint64_t trace_id, const std::string& detail,
    const TraceCollector* collector) {
  const char* dir = std::getenv("MVTEE_EVIDENCE_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return util::FailedPrecondition("MVTEE_EVIDENCE_DIR not set");
  }
  ::mkdir(dir, 0755);  // best effort; EEXIST is the common case

  JsonValue::Object root;
  root.emplace_back("schema", "mvtee-evidence-v1");
  root.emplace_back("trigger", trigger);
  root.emplace_back("detail", detail);
  root.emplace_back("trace_id", std::to_string(trace_id));
  root.emplace_back("wall_us", util::NowMicros());

  JsonValue::Array verdicts;
  for (const CheckpointEvidence& ev : Snapshot()) {
    verdicts.push_back(EvidenceToJson(ev));
  }
  root.emplace_back("verdicts", JsonValue(std::move(verdicts)));

  // The causally linked cross-TEE timeline of the affected trace; the
  // full (unsliced) merge when the incident has no trace id.
  TraceCollector::MergedTrace merged = collector->Merge();
  if (trace_id != 0) merged = merged.Slice(trace_id);
  root.emplace_back("trace", merged.ToJsonValue());

  // Metrics snapshot: re-parse the registry's own JSON so the bundle
  // embeds it as structured data rather than an escaped string.
  auto metrics = ParseJson(Registry::Default().Snapshot().ToJson(0));
  root.emplace_back("metrics",
                    metrics.ok() ? std::move(*metrics) : JsonValue(nullptr));

  const uint64_t seq =
      g_bundle_seq.fetch_add(1, std::memory_order_relaxed);
  char name[128];
  std::snprintf(name, sizeof(name), "%s/evidence-%d-%llu.json", dir,
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(seq));
  std::FILE* f = std::fopen(name, "w");
  if (f == nullptr) {
    return util::Internal(std::string("cannot write evidence bundle ") +
                          name);
  }
  const std::string doc = JsonValue(std::move(root)).Dump(2);
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    return util::Internal(std::string("short write on ") + name);
  }
  Registry::Default().GetCounter("recorder.bundles_written").Add(1);
  return std::string(name);
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked
  return *recorder;
}

}  // namespace mvtee::obs
