// Divergence flight recorder (DESIGN.md §8): a bounded ring of recent
// checkpoint verdicts — per-variant output digests, sequence numbers
// and virtual-time bases — retained continuously so that when something
// goes wrong (vote divergence, authentication failure, run abort) the
// monitor can dump a self-contained JSON evidence bundle explaining
// *why*, not just that it happened.
//
// The bundle contains the trigger, the retained verdict ring, the
// merged cross-TEE trace slice for the affected trace id, and a metrics
// snapshot. Bundles are written to $MVTEE_EVIDENCE_DIR (one file per
// incident); when the variable is unset, DumpBundle is a no-op that
// returns FailedPrecondition so hot paths can call it unconditionally.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace mvtee::obs {

// One variant's contribution to a checkpoint verdict.
struct VariantEvidence {
  std::string variant_id;
  bool ok = false;         // did the variant report a healthy result
  // Hex SHA-256 over the reported outputs' shapes and payloads, and
  // whether they held a NaN or an infinity. Filled for every verdict
  // but "accepted" (whose members all matched the forwarded value);
  // "" for an accepted verdict or a failed or missing report.
  std::string digest;
  bool nonfinite = false;
  uint64_t vtime_us = 0;   // virtual arrival time of the report
  bool dissent = false;    // voted against the accepted value
};

// One checkpoint verdict, as applied on the monitor thread.
struct CheckpointEvidence {
  uint64_t trace_id = 0;
  uint64_t batch = 0;
  int32_t stage = -1;
  // "accepted" | "divergence" | "late-divergence" | "rule-violation" |
  // "variant-failure" — free-form, but these are the produced values.
  std::string verdict;
  int64_t v_decide_us = 0;  // virtual decision time
  std::vector<VariantEvidence> variants;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256);

  // Retains `ev`, evicting the oldest once at capacity. Thread-safe.
  void Note(CheckpointEvidence ev);

  // Retained verdicts, oldest first.
  std::vector<CheckpointEvidence> Snapshot() const;
  uint64_t total_noted() const;
  void Clear();

  // Writes an evidence bundle for an incident on `trace_id` to
  // $MVTEE_EVIDENCE_DIR and returns the file path. `trigger` names the
  // incident class ("vote-divergence", "auth-failure", "run-abort");
  // `detail` is the human-readable status message. The merged trace
  // slice comes from `collector` (default process collector), the
  // metrics snapshot from the default registry. FailedPrecondition when
  // the env var is unset.
  util::Result<std::string> DumpBundle(
      const std::string& trigger, uint64_t trace_id,
      const std::string& detail,
      const TraceCollector* collector = &TraceCollector::Default());

  // Process-wide recorder the monitor notes verdicts into.
  static FlightRecorder& Default();

 private:
  mutable std::mutex mu_;
  std::vector<CheckpointEvidence> ring_;
  size_t capacity_;
  uint64_t next_ = 0;
};

}  // namespace mvtee::obs
